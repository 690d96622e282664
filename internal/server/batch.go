package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"stridepf/internal/api"
	"stridepf/internal/profile"
	"stridepf/internal/workloads"
)

// Batched multi-shard ingest: POST /v1/profiles/batch accepts many shards
// in one request, each addressed to its own (workload, config) aggregate
// and carrying its own idempotency key. Retry semantics are whole-batch:
// a transient failure mid-batch answers 503 and the client resends the
// entire batch — shards that committed before the failure replay through
// their per-shard keys instead of double-merging, so partial progress is
// never lost and never duplicated. Wire shapes are api.BatchRequest /
// api.BatchResponse.

// maxBatchShards bounds one batch request; producers with more shards
// split into multiple batches.
const maxBatchShards = 256

func (s *Server) handleProfileBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "%v", err))
		return
	}
	var req api.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "%v", err))
		return
	}
	if len(req.Shards) == 0 {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "empty batch"))
		return
	}
	if len(req.Shards) > maxBatchShards {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
			"batch of %d shards exceeds the limit of %d", len(req.Shards), maxBatchShards))
		return
	}
	// Structural validation up front: a malformed request is rejected
	// before any shard merges, so it can never half-apply.
	for i, sh := range req.Shards {
		if workloads.Get(sh.Workload) == nil {
			s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
				"shard %d: unknown workload %q", i, sh.Workload))
			return
		}
		if sh.IdemKey == "" {
			s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
				"shard %d: idemKey is required (whole-batch retries rely on per-shard dedup)", i))
			return
		}
		if len(sh.Profile) == 0 || string(sh.Profile) == "null" {
			s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
				"shard %d: missing profile", i))
			return
		}
	}

	results := make([]api.BatchItemResult, len(req.Shards))
	for i, sh := range req.Shards {
		res := api.BatchItemResult{Workload: sh.Workload, Config: sh.Config}
		prof, err := profile.DefaultCodec.Decode(bytes.NewReader(sh.Profile))
		if err != nil {
			res.Error = err.Error()
			results[i] = res
			continue
		}
		info, replayed, err := s.commitShard(sh.Workload, sh.Config, prof, sh.IdemKey)
		switch {
		case err == nil:
			res.Info, res.Replayed = &info, replayed
		case isTemporary(err):
			// Abort the whole batch retryably. Shards 0..i-1 committed under
			// their idempotency keys; the client's full resend replays them.
			e := api.Errorf(http.StatusServiceUnavailable, api.CodeUnavailable,
				"shard %d (%s/%s): %v", i, sh.Workload, sh.Config, err)
			e.RetryAfter = 1
			s.writeErr(w, e)
			return
		default:
			res.Error = err.Error()
		}
		results[i] = res
	}
	s.log.Printf("server: batch of %d shards processed", len(req.Shards))
	s.writeJSON(w, http.StatusOK, api.BatchResponse{Results: results})
}
