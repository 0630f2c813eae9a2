package core

import (
	"time"

	"retrolock/internal/obs"
	"retrolock/internal/span"
)

// Series names published by the adapters below. Counters are cumulative
// since session start; gauges are instantaneous. Durations are nanoseconds
// (suffix _ns).
const (
	MetricSyncMsgsSent      = "retrolock_sync_msgs_sent"
	MetricSyncMsgsRcvd      = "retrolock_sync_msgs_rcvd"
	MetricSyncBytesSent     = "retrolock_sync_bytes_sent"
	MetricSyncBytesRcvd     = "retrolock_sync_bytes_rcvd"
	MetricSyncInputsSent    = "retrolock_sync_inputs_sent"
	MetricSyncInputsFresh   = "retrolock_sync_inputs_fresh"
	MetricSyncInputsDup     = "retrolock_sync_inputs_dup"
	MetricSyncWaits         = "retrolock_sync_waits"
	MetricSyncWaitNs        = "retrolock_sync_wait_ns"
	MetricSyncMalformedRcvd = "retrolock_sync_malformed_rcvd"
	MetricSyncSnapChunks    = "retrolock_sync_snap_chunks"
	MetricSyncBufPeak       = "retrolock_sync_buf_peak"

	MetricFrame       = "retrolock_frame"
	MetricLagChanges  = "retrolock_lag_changes"
	MetricDesyncTotal = "retrolock_desync_total"

	// Histogram names (power-of-two nanosecond buckets, see obs.Histogram).
	MetricFrameTimeNs = "retrolock_frame_time_ns" // frame wall time
	MetricStallNs     = "retrolock_stall_ns"      // individual SyncInput stalls
	MetricRTTNs       = "retrolock_rtt_ns"        // per-peer RTT samples
	MetricSkewNs      = "retrolock_skew_ns"       // cross-site frame-begin skew

	// Input-journey histograms derived from span.Journal stamps.
	MetricInputLatencyNs = "retrolock_input_latency_ns" // peer press -> local execution
	MetricLocalLatencyNs = "retrolock_local_latency_ns" // own press -> own execution
	MetricNetLatencyNs   = "retrolock_net_latency_ns"   // peer send -> local receive (one-way)
	MetricExecSkewNs     = "retrolock_exec_skew_ns"     // |local begin - remote begin| per frame

	MetricRollbacks         = "retrolock_rollback_rollbacks"
	MetricRollbackReplayed  = "retrolock_rollback_replayed_frames"
	MetricRollbackDeepest   = "retrolock_rollback_deepest"
	MetricRollbackPredicted = "retrolock_rollback_predicted_frames"
	MetricRollbackStalls    = "retrolock_rollback_stall_frames"
	MetricRollbackTimesync  = "retrolock_rollback_timesync_slept_ns"
	MetricRollbackSnapBytes = "retrolock_rollback_snapshot_bytes"
)

// RegisterSyncMetrics publishes an InputSync's protocol counters as named
// series. Every closure reads atomics, so scrapes are safe while the frame
// loop runs.
func RegisterSyncMetrics(r *obs.Registry, labels obs.Labels, s *InputSync) {
	c := &s.stats
	r.CounterFunc(MetricSyncMsgsSent, labels, "sync messages transmitted", func() float64 { return float64(c.msgsSent.Load()) })
	r.CounterFunc(MetricSyncMsgsRcvd, labels, "sync messages accepted", func() float64 { return float64(c.msgsRcvd.Load()) })
	r.CounterFunc(MetricSyncBytesSent, labels, "sync payload bytes sent", func() float64 { return float64(c.bytesSent.Load()) })
	r.CounterFunc(MetricSyncBytesRcvd, labels, "sync payload bytes received", func() float64 { return float64(c.bytesRcvd.Load()) })
	r.CounterFunc(MetricSyncInputsSent, labels, "input words transmitted incl. retransmissions", func() float64 { return float64(c.inputsSent.Load()) })
	r.CounterFunc(MetricSyncInputsFresh, labels, "first-time input words that advanced LastRcvFrame", func() float64 { return float64(c.inputsFresh.Load()) })
	r.CounterFunc(MetricSyncInputsDup, labels, "received input words already buffered", func() float64 { return float64(c.inputsDup.Load()) })
	r.CounterFunc(MetricSyncWaits, labels, "SyncInput calls that had to block (paper 3.1)", func() float64 { return float64(c.waits.Load()) })
	r.CounterFunc(MetricSyncWaitNs, labels, "total time SyncInput spent blocked", func() float64 { return float64(c.waitTimeNs.Load()) })
	r.CounterFunc(MetricSyncMalformedRcvd, labels, "datagrams rejected as malformed or hostile", func() float64 { return float64(c.malformed.Load()) })
	r.CounterFunc(MetricSyncSnapChunks, labels, "snapshot chunks served to late joiners", func() float64 { return float64(c.snapChunks.Load()) })
	r.GaugeFunc(MetricSyncBufPeak, labels, "input ring window high-water mark (frames)", func() float64 { return float64(c.bufPeak.Load()) })
}

// SyncStatsFromSnapshot reassembles a Stats struct from the series
// RegisterSyncMetrics publishes — the registry-sourced replacement for
// passing Stats structs by hand (chaos phase reports, experiment tables).
func SyncStatsFromSnapshot(snap obs.Snapshot, labels obs.Labels) Stats {
	g := func(name string) float64 { return snap[obs.Key(name, labels)] }
	return Stats{
		MsgsSent:      int(g(MetricSyncMsgsSent)),
		MsgsRcvd:      int(g(MetricSyncMsgsRcvd)),
		BytesSent:     int64(g(MetricSyncBytesSent)),
		BytesRcvd:     int64(g(MetricSyncBytesRcvd)),
		InputsSent:    int(g(MetricSyncInputsSent)),
		InputsFresh:   int(g(MetricSyncInputsFresh)),
		InputsDup:     int(g(MetricSyncInputsDup)),
		Waits:         int(g(MetricSyncWaits)),
		WaitTime:      time.Duration(int64(g(MetricSyncWaitNs))),
		MalformedRcvd: int(g(MetricSyncMalformedRcvd)),
		SnapChunks:    int(g(MetricSyncSnapChunks)),
		BufPeak:       int(g(MetricSyncBufPeak)),
	}
}

// NewSessionObs builds the per-site instrumentation bundle for a session:
// frame-time, stall and RTT histograms registered under the site's labels,
// plus — when traceCap > 0 — a fixed-capacity frame-event tracer published
// as "site<N>". Hand the result to (*Session).SetObs or
// (*RollbackSession).SetObs.
func NewSessionObs(r *obs.Registry, site, traceCap int, epoch time.Time) *obs.SessionObs {
	sl := obs.SiteLabels(site)
	so := &obs.SessionObs{
		Site:      site,
		FrameTime: r.NewHistogram(MetricFrameTimeNs, sl, "frame wall time (begin to end)"),
		Wait:      r.NewHistogram(MetricStallNs, sl, "individual SyncInput stall durations"),
		RTT:       r.NewHistogram(MetricRTTNs, sl, "RTT samples from sync-message echoes"),
	}
	if traceCap > 0 {
		so.Tracer = obs.NewTracer(traceCap, epoch)
		r.AddTracer(so.Tracer)
	}
	return so
}

// NewInputJourney builds a span journal wired to registered histograms for
// the four derived input-journey series (cross-site latency, local latency,
// one-way network latency, execution skew) under the site's labels. Attach
// the result with (*Session).SetJournal / (*InputSync).SetJournal and
// transport.ARQConn.SetJournal.
func NewInputJourney(r *obs.Registry, site int, epoch time.Time) *span.Journal {
	sl := obs.SiteLabels(site)
	j := span.NewJournal(epoch, 0)
	j.Cross = r.NewHistogram(MetricInputLatencyNs, sl, "cross-site input latency: peer press to local execution")
	j.Local = r.NewHistogram(MetricLocalLatencyNs, sl, "local input latency: own press to own execution (the local-lag cost)")
	j.Net = r.NewHistogram(MetricNetLatencyNs, sl, "one-way network latency: peer send to local receive, via the clock-offset estimate")
	j.Skew = r.NewHistogram(MetricExecSkewNs, sl, "per-frame execution skew between the two sites")
	return j
}

// RollbackStatsFromSnapshot reassembles a RollbackStats from the series
// RegisterRollbackMetrics publishes.
func RollbackStatsFromSnapshot(snap obs.Snapshot, labels obs.Labels) RollbackStats {
	g := func(name string) float64 { return snap[obs.Key(name, labels)] }
	return RollbackStats{
		Rollbacks:       int(g(MetricRollbacks)),
		ReplayedFrames:  int(g(MetricRollbackReplayed)),
		DeepestRollback: int(g(MetricRollbackDeepest)),
		PredictedFrames: int(g(MetricRollbackPredicted)),
		StallFrames:     int(g(MetricRollbackStalls)),
		TimesyncSlept:   time.Duration(int64(g(MetricRollbackTimesync))),
		SnapshotBytes:   int64(g(MetricRollbackSnapBytes)),
	}
}

// RegisterSessionMetrics publishes a lockstep session: its sync counters
// plus the live frame number and adaptive-lag bookkeeping.
func RegisterSessionMetrics(r *obs.Registry, labels obs.Labels, s *Session) {
	RegisterSyncMetrics(r, labels, s.sync)
	r.GaugeFunc(MetricFrame, labels, "next frame to execute", func() float64 { return float64(s.frame.Load()) })
	r.CounterFunc(MetricLagChanges, labels, "adaptive-lag retarget count", func() float64 { return float64(s.lagChanges.Load()) })
	r.CounterFunc(MetricDesyncTotal, labels, "replica divergences detected by the hash exchange", func() float64 { return float64(s.desyncs.Load()) })
}

// RegisterRollbackMetrics publishes a rollback-baseline session: its sync
// counters plus the timewarp overhead counters.
func RegisterRollbackMetrics(r *obs.Registry, labels obs.Labels, s *RollbackSession) {
	RegisterSyncMetrics(r, labels, s.sync)
	c := &s.stats
	r.GaugeFunc(MetricFrame, labels, "next frame to execute", func() float64 { return float64(s.frame.Load()) })
	r.CounterFunc(MetricRollbacks, labels, "restore+replay episodes", func() float64 { return float64(c.rollbacks.Load()) })
	r.CounterFunc(MetricRollbackReplayed, labels, "frames re-emulated during rollbacks", func() float64 { return float64(c.replayedFrames.Load()) })
	r.GaugeFunc(MetricRollbackDeepest, labels, "largest restore distance (frames)", func() float64 { return float64(c.deepest.Load()) })
	r.CounterFunc(MetricRollbackPredicted, labels, "frames first executed on predicted inputs", func() float64 { return float64(c.predicted.Load()) })
	r.CounterFunc(MetricRollbackStalls, labels, "frames delayed by the prediction window", func() float64 { return float64(c.stalls.Load()) })
	r.CounterFunc(MetricRollbackTimesync, labels, "extra sleep injected by timesync", func() float64 { return float64(c.timesyncNs.Load()) })
	r.CounterFunc(MetricRollbackSnapBytes, labels, "total savestate volume written", func() float64 { return float64(c.snapshotBytes.Load()) })
}
