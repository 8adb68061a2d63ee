package darco

// Option edits a Config. A run's configuration is a plain value —
// Job.Config — so Option survives only as the shim bench/ still calls
// JobForProgram, WithWorkload and Run with; each of those folds its
// options onto DefaultConfig once, in order, at construction. It goes
// when bench/ moves onto Job.Config.
type Option func(*Config)

// WithConfig replaces the entire configuration. It is a bench/ shim;
// set Job.Config instead.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithCosim toggles continuous co-simulation against the authoritative
// guest emulator. It is a bench/ shim; set Config.TOL.Cosim instead.
func WithCosim(on bool) Option {
	return func(c *Config) { c.TOL.Cosim = on }
}
