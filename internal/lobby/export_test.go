package lobby

import "time"

// WithExpiry returns cfg with idle sessions expiring after ttl, swept every
// sweep, so that an external test can watch an expiry in real time.
func WithExpiry(cfg Config, ttl, sweep time.Duration) Config {
	cfg.ttl, cfg.sweepEvery = ttl, sweep
	return cfg
}
