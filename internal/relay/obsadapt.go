package relay

import (
	"strconv"

	"retrolock/internal/obs"
)

// Series names for the relay daemon. Per-shard series carry a {shard="i"}
// label; reader-level rejects (datagrams that never reached a shard) use
// {shard="front"}.
const (
	MetricSessionsActive  = "retrolock_relay_sessions_active"
	MetricSessionsTotal   = "retrolock_relay_sessions_total"
	MetricSessionsExpired = "retrolock_relay_sessions_expired_total"
	MetricSessionsClosed  = "retrolock_relay_sessions_closed_total"
	MetricDatagramsIn     = "retrolock_relay_datagrams_in_total"
	MetricForwarded       = "retrolock_relay_forwarded_total"
	MetricBinds           = "retrolock_relay_binds_total"
	MetricPendingQueued   = "retrolock_relay_pending_queued_total"
	MetricRejected        = "retrolock_relay_rejected_total"
	MetricDropped         = "retrolock_relay_dropped_total"
	MetricQueuePeak       = "retrolock_relay_queue_peak"
	MetricStepNs          = "retrolock_relay_step_ns"
	// MetricSelfCaptureBytes is the capture taps' own memory cost: the
	// bytes the -capture recorder {tap="recorder"} and the hosted
	// sessions' anomaly rings {tap="rings"} have written, and so made
	// resident.
	MetricSelfCaptureBytes = "retrolock_obs_self_capture_bytes"
)

// RegisterMetrics publishes every shard's counters plus the daemon-level
// reader rejects and the aggregated shard step-time histogram. All reads are
// lock-free atomics, safe while the daemon serves.
func RegisterMetrics(r *obs.Registry, d *Daemon) {
	counter := func(name string, l obs.Labels, help string, c *obs.Counter) {
		r.CounterFunc(name, l, help, func() float64 { return float64(c.Value()) })
	}
	for _, s := range d.Shards() {
		s := s
		l := obs.Labels{"shard": strconv.Itoa(s.idx)}
		withReason := func(reason string) obs.Labels {
			return obs.Labels{"shard": strconv.Itoa(s.idx), "reason": reason}
		}
		r.GaugeFunc(MetricSessionsActive, l, "sessions currently hosted", func() float64 { return float64(s.Active()) })
		counter(MetricSessionsTotal, l, "sessions admitted", &s.sessionsTotal)
		counter(MetricSessionsExpired, l, "sessions expired by the TTL sweep", &s.sessionsExpired)
		counter(MetricSessionsClosed, l, "sessions closed by the control plane", &s.sessionsClosed)
		counter(MetricDatagramsIn, l, "datagrams the shard ingested", &s.datagramsIn)
		counter(MetricForwarded, l, "datagrams forwarded to a peer site", &s.forwarded)
		counter(MetricBinds, l, "header-only bind/keepalive datagrams", &s.binds)
		counter(MetricPendingQueued, l, "datagrams parked for a not-yet-bound site", &s.queuedPending)
		counter(MetricRejected, withReason("runt"), "datagrams dropped: shorter than the relay header", &s.rejRunt)
		counter(MetricRejected, withReason("site"), "datagrams dropped: invalid site byte", &s.rejSite)
		counter(MetricRejected, withReason("token"), "datagrams dropped: unknown session token", &s.rejToken)
		counter(MetricRejected, withReason("spoof"), "datagrams dropped: valid token from an unexpected source address", &s.rejSpoof)
		counter(MetricDropped, withReason("queue"), "datagrams dropped at the shard's inbound queue", &s.dropQueue)
		counter(MetricDropped, withReason("pending"), "datagrams evicted from per-session pending rings", &s.dropPending)
		r.GaugeFunc(MetricQueuePeak, l, "inbound-queue high-water mark", func() float64 { return float64(s.queuePeak.Load()) })
	}
	counter(MetricRejected, obs.Labels{"shard": "front", "reason": "runt"},
		"datagrams dropped at a reader: shorter than the relay header", &d.rejRunt)
	counter(MetricRejected, obs.Labels{"shard": "front", "reason": "route"},
		"datagrams dropped at a reader: token names no configured shard", &d.rejRoute)
	r.GaugeFunc("retrolock_relay_sessions", nil, "sessions hosted daemon-wide",
		func() float64 { return float64(d.Sessions()) })
	r.AddHistogram(MetricStepNs, nil, "shard Step duration (ns, real-clock mode)", d.StepTime)
	if tap := d.cfg.Tap; tap != nil {
		r.GaugeFunc(MetricSelfCaptureBytes, obs.Labels{"tap": "recorder"},
			"bytes the capture tap has written: record slots plus payloads",
			func() float64 { return float64(tap.Resident()) })
	}
	if d.cfg.Stats && d.cfg.AutoCaptureRecords > 0 {
		r.GaugeFunc(MetricSelfCaptureBytes, obs.Labels{"tap": "rings"},
			"bytes the hosted sessions' anomaly rings have written: record slots plus byte-window high-water marks",
			func() float64 { return float64(d.ringResident()) })
	}
}

// ringResident sums Resident over the anomaly rings of the sessions the
// shards last published. The sum is taken at scrape time, one ring mutex at
// a time; each ring keeps its own high-water marks as it records.
func (d *Daemon) ringResident() int {
	n := 0
	for _, s := range d.shards {
		for _, ref := range s.sessionTable() {
			if ref.valid() {
				n += ref.stats.ring.Resident()
			}
		}
	}
	return n
}

// SpoofRejected returns the shard's spoof-reject count (the satellite
// regression tests pin this counter).
func (s *Shard) SpoofRejected() int64 { return s.rejSpoof.Value() }

// Forwarded returns the shard's forwarded-datagram count.
func (s *Shard) Forwarded() int64 { return s.forwarded.Value() }

// QueueDropped returns datagrams dropped at the shard's inbound queue.
func (s *Shard) QueueDropped() int64 { return s.dropQueue.Value() }

// QueuePeak returns the inbound queue's high-water mark.
func (s *Shard) QueuePeak() int64 { return s.queuePeak.Load() }
