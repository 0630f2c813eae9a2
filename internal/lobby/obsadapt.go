package lobby

import "retrolock/internal/obs"

// Series names for the rendezvous server.
const (
	MetricJoins          = "retrolock_lobby_joins"
	MetricPeersNotified  = "retrolock_lobby_peers_notified"
	MetricPlaced         = "retrolock_lobby_relay_notified"
	MetricRejected       = "retrolock_lobby_rejected"
	MetricSessionsActive = "retrolock_lobby_sessions_active"
	MetricSessionsAged   = "retrolock_lobby_sessions_expired"
	MetricSessionsCapped = "retrolock_lobby_sessions_capped"
)

// RegisterMetrics publishes the server's counters; every closure snapshots
// under the server mutex, so scrapes are safe while Serve runs.
func RegisterMetrics(r *obs.Registry, s *Server) {
	r.CounterFunc(MetricJoins, nil, "well-formed JOIN requests handled", func() float64 { return float64(s.Stats().Joins) })
	r.CounterFunc(MetricPeersNotified, nil, "PEER replies sent", func() float64 { return float64(s.Stats().PeersNotified) })
	r.CounterFunc(MetricRejected, nil, "datagrams that failed to parse as JOIN", func() float64 { return float64(s.Stats().Rejected) })
	r.CounterFunc(MetricPlaced, nil, "RELAY replies sent", func() float64 { return float64(s.Stats().PlacedNotified) })
	r.GaugeFunc(MetricSessionsActive, nil, "session codes currently pending", func() float64 { return float64(s.Stats().SessionsActive) })
	r.CounterFunc(MetricSessionsAged, nil, "sessions expired by the TTL sweep", func() float64 { return float64(s.Stats().SessionsAged) })
	r.CounterFunc(MetricSessionsCapped, nil, "JOINs dropped at the session cap", func() float64 { return float64(s.Stats().SessionsCapped) })
}
