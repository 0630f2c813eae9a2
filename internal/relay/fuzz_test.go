package relay_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/relay"
	"retrolock/internal/trafficgen"
)

// FuzzRelayHeader holds the parsers every relayed datagram and every lobby
// token reach first to their contract: ParseHeader and ParseToken never
// panic, a header ParseHeader accepts is rebuilt byte for byte by PutHeader
// and its payload, and a token ParseToken accepts renders through
// Token.String as the lower-case of its input and parses back to itself.
// The seeds are the generator's real datagrams (a bind and a payload send
// per site, and a delivery) and their tokens' wire form.
func FuzzRelayHeader(f *testing.F) {
	rec := capture.NewRecorder(256, 1<<16)
	if _, err := trafficgen.Run(trafficgen.RunConfig{
		Model:   trafficgen.Model{Sessions: 2, Drivers: 1, Seed: 3},
		Shards:  1,
		Measure: 50 * time.Millisecond,
		Capture: rec,
	}); err != nil {
		f.Fatal(err)
	}
	seen := map[[3]int]bool{}
	for _, r := range rec.Snapshot(capture.Meta{}).Records {
		kind := [3]int{int(r.Dir), int(r.Site), len(r.Payload)}
		if seen[kind] {
			continue
		}
		seen[kind] = true
		f.Add(r.Payload)
		if tok, _, _, ok := relay.ParseHeader(r.Payload); ok {
			f.Add([]byte(tok.String()))
			f.Add([]byte(strings.ToUpper(tok.String())))
		}
	}
	if len(seen) < 3 {
		f.Fatalf("generator capture yielded %d datagram shapes, want binds, sends and deliveries", len(seen))
	}
	f.Add([]byte{})
	f.Add([]byte("00000000"))
	f.Add([]byte("0123456789abcdeg"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if tok, site, payload, ok := relay.ParseHeader(data); ok {
			buf := make([]byte, relay.HeaderLen, len(data))
			relay.PutHeader(buf, tok, site)
			if got := append(buf, payload...); !bytes.Equal(got, data) {
				t.Fatalf("header (%v, site %d) rebuilt as %x, parsed from %x", tok, site, got, data)
			}
		} else if len(data) >= relay.HeaderLen {
			t.Fatalf("ParseHeader refused %d bytes", len(data))
		}
		tok, err := relay.ParseToken(string(data))
		if err != nil {
			return
		}
		s := tok.String()
		if s != strings.ToLower(string(data)) {
			t.Fatalf("token parsed from %q renders as %q", data, s)
		}
		if back, err := relay.ParseToken(s); err != nil || back != tok {
			t.Fatalf("token %q parses back as %v, %v", s, back, err)
		}
	})
}
