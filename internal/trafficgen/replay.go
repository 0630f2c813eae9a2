package trafficgen

import (
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
	"retrolock/internal/relay"
)

// ReplayConfig shapes a captured-trace replay.
type ReplayConfig struct {
	// Profile names the link profile to replay under (default: the
	// capture's own Meta.Profile, falling back to "wifi").
	Profile string
	Drivers int
	Seed    int64
}

// A replay's relay daemon has replayShards shards, and the run extends
// replayDrain past the trace's span so in-flight datagrams land.
const (
	replayShards = 8
	replayDrain  = 400 * time.Millisecond
)

// replayEvent is one client send reconstructed from a capture record.
type replayEvent struct {
	at   time.Duration
	site int
	s    *session
	pl   []byte // payload after the relay prefix (copied out of the capture)
}

// Replay feeds a captured trace's client-side sends (capture.DirSend
// records) through fresh emulated links into a fresh relay daemon, in
// virtual time and at the recorded offsets. Sessions are re-admitted — one
// per distinct token in the trace, in first-appearance order — and each
// datagram's relay prefix is rewritten to its new token; generator payloads
// are re-stamped with the replay send instant so latency is measured against
// the replay's own links. Deterministic: the same capture and config yield a
// bit-identical Result.
func Replay(c *capture.Capture, cfg ReplayConfig) (*Result, error) {
	if c == nil || len(c.Records) == 0 {
		return nil, errors.New("trafficgen: empty capture")
	}
	profile := cfg.Profile
	if profile == "" {
		profile = c.Meta.Profile
	}
	if profile == "" {
		profile = "wifi"
	}
	if cfg.Drivers <= 0 {
		cfg.Drivers = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	e, err := newEngine(RunConfig{
		Model:   Model{Drivers: cfg.Drivers, Seed: cfg.Seed},
		Profile: profile,
		Shards:  replayShards,
	}, len(c.Records))
	if err != nil {
		return nil, err
	}
	v, d := e.clock, e.daemon

	// Re-admit one session per distinct token, in first-appearance order,
	// and reconstruct the send schedule.
	var (
		sessions []*session
		byOld    = make(map[relay.Token]*session)
		drvOf    = make(map[*session]int)
		events   = make([][]replayEvent, cfg.Drivers)
		maxPl    int
	)
	for i := range c.Records {
		rec := &c.Records[i]
		if rec.Dir != capture.DirSend {
			continue
		}
		oldTok, site, pl, ok := relay.ParseHeader(rec.Payload)
		if !ok {
			continue
		}
		s := byOld[oldTok]
		if s == nil {
			p, err := d.Place()
			if err != nil {
				d.Close()
				return nil, err
			}
			s = &session{token: p.Token, front: p.Addr, lat: &obs.Histogram{}}
			byOld[oldTok] = s
			j := len(sessions) % cfg.Drivers
			drvOf[s] = j
			e.drivers[j].own = append(e.drivers[j].own, s)
			e.drivers[j].byToken[s.token] = s
			sessions = append(sessions, s)
		}
		if len(pl) > maxPl {
			maxPl = len(pl)
		}
		j := drvOf[s]
		events[j] = append(events[j], replayEvent{
			at: rec.At, site: site, s: s, pl: append([]byte(nil), pl...),
		})
	}
	if len(sessions) == 0 {
		d.Close()
		return nil, errors.New("trafficgen: capture has no replayable sends")
	}
	for j := range events {
		evs := events[j]
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
		e.drivers[j].buf = make([]byte, relay.HeaderLen+maxPl)
	}

	// The whole trace is the measured window (plus the wake-grid slack each
	// re-stamped send can pick up).
	span := c.Records[len(c.Records)-1].At - c.Records[0].At
	e.mStart = e.epoch
	e.mEnd = e.epoch.Add(span + 2*driverTick)
	total := span + 2*driverTick + replayDrain

	var dones []<-chan struct{}
	<-v.Go(func() { // root actor: nothing runs until all are registered
		dones = append(dones, v.Go(func() { e.stopAfter(total) }), d.StartVirtual(v))
		for j, dr := range e.drivers {
			dr, evs := dr, events[j]
			dones = append(dones, v.Go(func() { e.runReplayDriver(dr, evs) }))
		}
	})
	for _, done := range dones {
		<-done
	}

	e.cfg.Model.Sessions = len(sessions)
	return e.grade(sessions, total), nil
}

// runReplayDriver plays one driver's slice of the schedule: each wake sends
// every event now due (rewriting token and stamp) and drains both sites.
func (e *engine) runReplayDriver(dr *driver, evs []replayEvent) {
	e.clock.Sleep(driverStagger(dr.idx))
	i := 0
	for !e.stop.Load() {
		now := e.clock.Now()
		elapsed := now.Sub(e.epoch)
		for i < len(evs) && evs[i].at <= elapsed {
			ev := &evs[i]
			n := relay.PutHeader(dr.buf, ev.s.token, ev.site)
			copy(dr.buf[n:], ev.pl)
			if len(ev.pl) >= genHeaderLen {
				binary.BigEndian.PutUint64(dr.buf[n:], uint64(elapsed))
				binary.BigEndian.PutUint64(dr.buf[n+8:], uint64(ev.s.token))
				dr.buf[n+16] = byte(ev.site)
				if e.inWindow(now) {
					ev.s.sent++
				}
			}
			_ = e.siteEp(dr, ev.site).SendTo(ev.s.front, dr.buf[:n+len(ev.pl)])
			i++
		}
		e.drain(dr, dr.epA, 0, now)
		e.drain(dr, dr.epB, 1, now)
		e.clock.Sleep(driverTick)
	}
}
