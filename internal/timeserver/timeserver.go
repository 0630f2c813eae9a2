// Package timeserver implements the measurement infrastructure of the
// paper's testbed (§4): a third host that timestamps "frame begin" reports
// from the gaming sites, so frame times and cross-site synchrony can be
// measured without synchronizing the sites' own clocks. The sites are
// connected to the server over a LAN whose round trip is "safely under 1 ms".
//
// Server runs over the in-process simnet (the experiment harness); UDPServer
// is the equivalent for live measurement over a real network.
package timeserver

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"retrolock/internal/simnet"
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

// DecodeReport parses a report datagram.
func DecodeReport(p []byte) (site, frame int, err error) {
	if len(p) != reportLen || p[0] != msgReport {
		return 0, 0, fmt.Errorf("timeserver: malformed report (%d bytes)", len(p))
	}
	return int(p[1]), int(binary.LittleEndian.Uint32(p[2:])), nil
}

// Sample is one timestamped frame-begin report.
type Sample struct {
	Frame int
	At    time.Time
}

// recorder accumulates samples per site. Duplicate reports for a frame keep
// the first arrival (retransmissions must not skew timing).
type recorder struct {
	mu    sync.Mutex
	sites map[int]map[int]time.Time
}

func newRecorder() *recorder {
	return &recorder{sites: make(map[int]map[int]time.Time)}
}

func (r *recorder) record(site, frame int, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.sites[site]
	if !ok {
		m = make(map[int]time.Time)
		r.sites[site] = m
	}
	if _, dup := m[frame]; !dup {
		m[frame] = at
	}
}

// total reports the number of recorded samples across all sites, and the
// number of sites seen.
func (r *recorder) total() (reports, sites int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.sites {
		reports += len(m)
	}
	return reports, len(r.sites)
}

func (r *recorder) samples(site int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.sites[site]
	out := make([]Sample, 0, len(m))
	for f, at := range m {
		out = append(out, Sample{Frame: f, At: at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frame < out[j].Frame })
	return out
}

// Server is a time server bound to a simnet endpoint. It owns no actor:
// whoever drives the simulation calls Poll, at least once before the
// endpoint's receive queue can fill.
type Server struct {
	ep  *simnet.Endpoint
	rec *recorder
}

// NewServer creates a server reading reports from ep.
func NewServer(ep *simnet.Endpoint) *Server {
	return &Server{ep: ep, rec: newRecorder()}
}

// Poll records every report that has arrived. Samples are timestamped with
// each datagram's exact delivery instant, so how often Poll runs does not
// quantize measurements.
func (s *Server) Poll() {
	for {
		d, ok := s.ep.TryRecv()
		if !ok {
			return
		}
		site, frame, err := DecodeReport(d.Payload)
		if err != nil {
			continue
		}
		s.rec.record(site, frame, d.At)
	}
}

// Samples returns the recorded frame-begin times of a site, frame-ordered.
func (s *Server) Samples(site int) []Sample { return s.rec.samples(site) }

// ReportCount returns the number of recorded frame reports across all sites
// and the number of distinct reporting sites. Safe to call while another
// goroutine polls.
func (s *Server) ReportCount() (reports, sites int) { return s.rec.total() }

// FrameTimes returns consecutive frame-begin differences for a site — the
// per-frame times of experiment series 1. Frames missing a report are
// skipped together with their successor.
func (s *Server) FrameTimes(site int) []time.Duration {
	return FrameTimes(s.rec.samples(site))
}

// SyncDiffs returns, per frame, the begin-time difference between two sites
// (site b minus site a) — the metric of experiment series 2.
func (s *Server) SyncDiffs(a, b int) []time.Duration {
	return SyncDiffs(s.rec.samples(a), s.rec.samples(b))
}

// FrameTimes computes consecutive frame-begin differences from samples.
func FrameTimes(samples []Sample) []time.Duration {
	var out []time.Duration
	for i := 1; i < len(samples); i++ {
		if samples[i].Frame == samples[i-1].Frame+1 {
			out = append(out, samples[i].At.Sub(samples[i-1].At))
		}
	}
	return out
}

// SyncDiffs pairs samples by frame number and returns b.At - a.At per frame.
func SyncDiffs(a, b []Sample) []time.Duration {
	byFrame := make(map[int]time.Time, len(a))
	for _, s := range a {
		byFrame[s.Frame] = s.At
	}
	var out []time.Duration
	for _, s := range b {
		if at, ok := byFrame[s.Frame]; ok {
			out = append(out, s.At.Sub(at))
		}
	}
	return out
}

// UDPServer is the live-network time server used by cmd/timeserverd: same
// recording logic over a real UDP socket.
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

// ReportCount mirrors Server.ReportCount for the live server. Safe to call
// while Serve reads.
func (s *UDPServer) ReportCount() (reports, sites int) { return s.rec.total() }

// FrameTimes mirrors Server.FrameTimes for the live server.
func (s *UDPServer) FrameTimes(site int) []time.Duration {
	return FrameTimes(s.rec.samples(site))
}

// SyncDiffs mirrors Server.SyncDiffs for the live server.
func (s *UDPServer) SyncDiffs(a, b int) []time.Duration {
	return SyncDiffs(s.rec.samples(a), s.rec.samples(b))
}
