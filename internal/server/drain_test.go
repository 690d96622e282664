package server

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stridepf/internal/api"
)

// TestDrainRacesAdmissions races heavy-request admissions against Drain.
// Every request is either served before Drain returns or refused with the
// 503 unavailable envelope, no heavy handler runs once Drain has returned,
// and admissions after that are refused. It needs no simulation, so it
// runs in -short mode and the race gate covers the drain path.
func TestDrainRacesAdmissions(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv := New(Config{MaxInFlight: 4, MaxQueued: 256, Log: log.New(io.Discard, "", 0)})
		var running atomic.Int32
		var drained atomic.Bool
		h := srv.heavy(func(w http.ResponseWriter, r *http.Request) {
			running.Add(1)
			if drained.Load() {
				t.Error("heavy handler started after Drain returned")
			}
			runtime.Gosched()
			running.Add(-1)
			w.WriteHeader(http.StatusNoContent)
		})
		call := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest("GET", "/v1/figure/16", nil))
			return rec
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 8; j++ {
					if rec := call(); rec.Code != http.StatusNoContent {
						checkDraining(t, rec)
					}
				}
			}()
		}
		close(start)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		cancel()
		drained.Store(true)
		if n := running.Load(); n != 0 {
			t.Errorf("round %d: %d heavy handlers still running after Drain", round, n)
		}
		wg.Wait()
		checkDraining(t, call())
	}
}

// checkDraining asserts rec is the refusal a draining server gives.
func checkDraining(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	e := api.DecodeErrorBody(rec.Code, rec.Body.Bytes())
	if rec.Code != http.StatusServiceUnavailable || e.Code != api.CodeUnavailable {
		t.Fatalf("status %d code %q, want 503 %q", rec.Code, e.Code, api.CodeUnavailable)
	}
	if ra := rec.Header().Get("Retry-After"); ra != strconv.Itoa(e.RetryAfter) || e.RetryAfter < 1 {
		t.Errorf("Retry-After header %q, envelope retryAfter %d", ra, e.RetryAfter)
	}
}
