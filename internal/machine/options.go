package machine

import (
	"io"

	"stridepf/internal/cache"
	"stridepf/internal/obs"
)

// Option configures a machine at construction time. Options are applied in
// order, so later options override earlier ones; WithConfig replaces the
// whole configuration and is therefore usually first.
//
// The functional-option constructor replaces the old fieldwise
// machine.Config literals that had drifted across the cmd tools, the
// experiment harness, simcheck and the tests: call sites now say what they
// enable (machine.WithSelfCheck()) instead of which struct fields they
// happen to know about.
type Option func(*Config)

// WithConfig installs cfg wholesale as the base configuration. Layer
// further options after it to adjust individual knobs.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithHierarchy selects the cache configuration.
func WithHierarchy(h cache.HierarchyConfig) Option {
	return func(c *Config) { c.Hierarchy = h }
}

// WithHeap bounds the simulated heap.
func WithHeap(base, size uint64) Option {
	return func(c *Config) { c.HeapBase, c.HeapSize = base, size }
}

// WithMaxSteps aborts runaway programs after n instructions.
func WithMaxSteps(n uint64) Option {
	return func(c *Config) { c.MaxSteps = n }
}

// WithMaxDepth bounds the call stack.
func WithMaxDepth(n int) Option {
	return func(c *Config) { c.MaxDepth = n }
}

// WithSeed seeds the OpRand generator.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithHWPrefetch attaches a hardware prefetcher model observing the demand
// load stream.
func WithHWPrefetch(p HWPrefetcher) Option {
	return func(c *Config) { c.HWPrefetch = p }
}

// WithHWPrefetchFactory installs a constructor that builds this machine's
// hardware prefetcher at New time. Use it instead of WithHWPrefetch when
// one configuration fans out to many machines: every machine gets its own
// predictor state.
func WithHWPrefetchFactory(f func() HWPrefetcher) Option {
	return func(c *Config) { c.NewHWPrefetch = f }
}

// WithSelfCheck runs the naive shadow models of the cache hierarchy and
// flat memory in lockstep, cross-checking every access.
func WithSelfCheck() Option {
	return func(c *Config) { c.SelfCheck = true }
}

// WithDisablePrefetch makes OpPrefetch instructions architectural no-ops
// (differential checkers use it to assert prefetch neutrality).
func WithDisablePrefetch() Option {
	return func(c *Config) { c.DisablePrefetch = true }
}

// WithTrace streams one line per executed instruction to w.
func WithTrace(w io.Writer) Option {
	return func(c *Config) { c.Trace = w }
}

// WithObs attaches a prefetch-effectiveness collector (see package obs).
func WithObs(col *obs.Collector) Option {
	return func(c *Config) { c.Obs = col }
}

// WithInterrupt aborts the simulation with ErrInterrupted shortly after ch
// becomes readable; pass a context's Done channel to thread request
// cancellation into long runs.
func WithInterrupt(ch <-chan struct{}) Option {
	return func(c *Config) { c.Interrupt = ch }
}

// WithDisableBlockCache forces the per-instruction reference interpreter
// even when the fused block-cache fast path would apply. The differential
// checkers run both and compare.
func WithDisableBlockCache() Option {
	return func(c *Config) { c.DisableBlockCache = true }
}

// WithPairProfile records the dynamic frequency of adjacent opcode pairs
// into p (implies the reference interpreter; see Config.PairProfile).
func WithPairProfile(p *PairProfile) Option {
	return func(c *Config) { c.PairProfile = p }
}

// WithLanes attaches extra memory systems driven in lockstep with the
// primary one (see Lane).
func WithLanes(lanes ...Lane) Option {
	return func(c *Config) { c.Lanes = lanes }
}
