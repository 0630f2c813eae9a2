// Package timeserver implements the measurement infrastructure of the
// paper's testbed (§4): a third host that timestamps "frame begin" reports
// from the gaming sites, so frame times and cross-site synchrony can be
// measured without synchronizing the sites' own clocks. The sites are
// connected to the server over a LAN whose round trip is "safely under 1 ms".
//
// UDPServer is that server for real runs (cmd/timeserverd). In virtual time
// the sites share one clock, and a server on the constant-delay LAN would
// stamp each frame begin the same 50 µs after it happened; so the experiment
// harness reads each site's frame-begin instant off the shared clock instead
// and feeds the samples to FrameTimes and SyncDiffs directly.
package timeserver

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"
)

// Report wire format: type byte, site byte, frame uint32 (little endian).
const (
	msgReport = byte(0x54) // 'T'
	reportLen = 6
)

// EncodeReport builds a frame-begin report datagram.
func EncodeReport(site, frame int) []byte {
	buf := make([]byte, reportLen)
	buf[0] = msgReport
	buf[1] = byte(site)
	binary.LittleEndian.PutUint32(buf[2:], uint32(frame))
	return buf
}

// DecodeReport parses a report datagram. A frame number of 2^31 or more is
// malformed: it would turn negative in a 32-bit int, so the answer would
// depend on the architecture.
func DecodeReport(p []byte) (site, frame int, err error) {
	if len(p) != reportLen || p[0] != msgReport {
		return 0, 0, fmt.Errorf("timeserver: malformed report (%d bytes)", len(p))
	}
	f := binary.LittleEndian.Uint32(p[2:])
	if f > math.MaxInt32 {
		return 0, 0, fmt.Errorf("timeserver: malformed report (frame %d past 2^31-1)", f)
	}
	return int(p[1]), int(f), nil
}

// Sample is one timestamped frame-begin report.
type Sample struct {
	Frame int
	At    time.Time
}

// recorder accumulates samples per site in arrival order. Duplicate reports
// for a frame keep the first arrival (retransmissions must not skew timing).
type recorder struct {
	mu    sync.Mutex
	sites map[int]*siteLog
}

// siteLog is one site's samples in arrival order, with the frames seen.
type siteLog struct {
	seen    map[int]struct{}
	samples []Sample
}

func newRecorder() *recorder {
	return &recorder{sites: make(map[int]*siteLog)}
}

func (r *recorder) record(site, frame int, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.sites[site]
	if !ok {
		l = &siteLog{seen: make(map[int]struct{})}
		r.sites[site] = l
	}
	if _, dup := l.seen[frame]; !dup {
		l.seen[frame] = struct{}{}
		l.samples = append(l.samples, Sample{Frame: frame, At: at})
	}
}

// total reports the number of recorded samples across all sites, and the
// number of sites seen.
func (r *recorder) total() (reports, sites int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.sites {
		reports += len(l.samples)
	}
	return reports, len(r.sites)
}

// samples returns a site's samples ordered by frame. Reports usually arrive
// in frame order, so the sort runs only when they did not.
func (r *recorder) samples(site int) []Sample {
	r.mu.Lock()
	var out []Sample
	if l := r.sites[site]; l != nil {
		out = slices.Clone(l.samples)
	}
	r.mu.Unlock()
	byFrame := func(a, b Sample) int { return cmp.Compare(a.Frame, b.Frame) }
	if !slices.IsSortedFunc(out, byFrame) {
		slices.SortFunc(out, byFrame)
	}
	return out
}

// FrameTimes computes consecutive frame-begin differences from samples —
// the per-frame times of experiment series 1. Frames missing a sample are
// skipped together with their successor.
func FrameTimes(samples []Sample) []time.Duration {
	var out []time.Duration
	for i := 1; i < len(samples); i++ {
		if samples[i].Frame == samples[i-1].Frame+1 {
			out = append(out, samples[i].At.Sub(samples[i-1].At))
		}
	}
	return out
}

// SyncDiffs pairs samples by frame number and returns b.At - a.At per frame —
// the metric of experiment series 2.
func SyncDiffs(a, b []Sample) []time.Duration {
	byFrame := make(map[int]time.Time, len(a))
	for _, s := range a {
		byFrame[s.Frame] = s.At
	}
	out := make([]time.Duration, 0, min(len(a), len(b)))
	for _, s := range b {
		if at, ok := byFrame[s.Frame]; ok {
			out = append(out, s.At.Sub(at))
		}
	}
	return out
}

// UDPServer is the live-network time server used by cmd/timeserverd.
type UDPServer struct {
	pc  net.PacketConn
	rec *recorder

	mu     sync.Mutex
	closed bool
}

// ListenUDP binds a live time server to addr (e.g. ":7100").
func ListenUDP(addr string) (*UDPServer, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("timeserver: listen: %w", err)
	}
	return &UDPServer{pc: pc, rec: newRecorder()}, nil
}

// Addr returns the bound address.
func (s *UDPServer) Addr() string { return s.pc.LocalAddr().String() }

// Serve reads reports until Close. Timestamps use the host clock at the
// moment the datagram is read.
func (s *UDPServer) Serve() error {
	buf := make([]byte, 64)
	for {
		n, _, err := s.pc.ReadFrom(buf)
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("timeserver: read: %w", err)
		}
		if site, frame, err := DecodeReport(buf[:n]); err == nil {
			s.rec.record(site, frame, time.Now())
		}
	}
}

// Close stops Serve.
func (s *UDPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.pc.Close()
}

// Samples returns the recorded frame-begin times of a site.
func (s *UDPServer) Samples(site int) []Sample { return s.rec.samples(site) }

// ReportCount returns the number of recorded frame reports across all sites
// and the number of distinct reporting sites. Safe to call while Serve
// reads.
func (s *UDPServer) ReportCount() (reports, sites int) { return s.rec.total() }

// FrameTimes returns a site's frame times (see FrameTimes).
func (s *UDPServer) FrameTimes(site int) []time.Duration {
	return FrameTimes(s.rec.samples(site))
}

// SyncDiffs returns the per-frame begin-time differences between two
// sites, site b minus site a (see SyncDiffs).
func (s *UDPServer) SyncDiffs(a, b int) []time.Duration {
	return SyncDiffs(s.rec.samples(a), s.rec.samples(b))
}
