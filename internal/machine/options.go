package machine

import (
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

// WithMaxSteps aborts runaway programs after n instructions.
func WithMaxSteps(n uint64) Option {
	return func(c *Config) { c.MaxSteps = n }
}

// WithHWPrefetchFactory installs a constructor that builds this machine's
// hardware prefetcher, observing the demand load stream, at New time. A
// factory lets one configuration fan out to many machines, each with its
// own predictor state.
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

// WithPairProfile records the dynamic frequency of adjacent opcode pairs
// into p (the run executes the exact translation; see Config.PairProfile).
func WithPairProfile(p *PairProfile) Option {
	return func(c *Config) { c.PairProfile = p }
}

// WithLanes attaches extra memory systems driven in lockstep with the
// primary one (see Lane).
func WithLanes(lanes ...Lane) Option {
	return func(c *Config) { c.Lanes = lanes }
}
