package core

import (
	"encoding/binary"
	"fmt"
)

// Divergence detection. Logical consistency (§3.1) guarantees convergence as
// long as the VM is deterministic; a nondeterminism bug (the §5 caveat:
// clocks, files, environment reaching the game) silently breaks that
// guarantee. Production netplay systems therefore exchange periodic state
// digests. Sites attach their machine hash every HashInterval frames; each
// site compares remote digests against its own history and surfaces
// ErrDiverged the moment the replicas disagree, naming the exact frame —
// which turns "the game feels wrong" into a replay-debuggable report.

// DefaultHashInterval is how often (in frames) state digests are exchanged:
// once per second at 60 FPS.
const DefaultHashInterval = 60

// hashHistory bounds how many own digests are retained for comparison.
const hashHistory = 64

// DivergenceError reports a replica mismatch at a specific frame.
type DivergenceError struct {
	Frame  int
	Site   int // the remote site whose digest disagreed
	Ours   uint64
	Theirs uint64
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("core: replicas diverged at frame %d (site %d reports %016x, ours %016x)",
		e.Frame, e.Site, e.Theirs, e.Ours)
}

// hashLog tracks own digests and pending remote digests.
type hashLog struct {
	interval int
	own      map[int]uint64   // frame -> our digest, the last hashHistory
	ownOrder [hashHistory]int // own's frames, oldest at ownNext once full
	ownNext  int
	pending  map[int][2]uint64 // frame -> {site, digest} awaiting our hash
	failure  *DivergenceError
}

func newHashLog(interval int) *hashLog {
	return &hashLog{
		interval: interval,
		own:      make(map[int]uint64, hashHistory),
		pending:  make(map[int][2]uint64),
	}
}

// record stores our digest for frame and resolves any pending remote digest.
func (l *hashLog) record(frame int, hash uint64) {
	if frame%l.interval != 0 {
		return
	}
	if len(l.own) == hashHistory {
		delete(l.own, l.ownOrder[l.ownNext])
	}
	l.own[frame] = hash
	l.ownOrder[l.ownNext] = frame
	l.ownNext = (l.ownNext + 1) % hashHistory
	if p, ok := l.pending[frame]; ok {
		delete(l.pending, frame)
		l.compare(frame, int(p[0]), p[1], hash)
	}
}

// remote ingests a digest received from a peer.
func (l *hashLog) remote(site, frame int, theirs uint64) {
	if ours, ok := l.own[frame]; ok {
		l.compare(frame, site, theirs, ours)
		return
	}
	// Not executed (or already evicted); keep the freshest per frame.
	l.pending[frame] = [2]uint64{uint64(site), theirs}
	if len(l.pending) > hashHistory {
		// Drop the oldest pending frame to bound memory.
		oldest := -1
		for f := range l.pending {
			if oldest < 0 || f < oldest {
				oldest = f
			}
		}
		delete(l.pending, oldest)
	}
}

func (l *hashLog) compare(frame, site int, theirs, ours uint64) {
	if theirs == ours || l.failure != nil {
		return
	}
	l.failure = &DivergenceError{Frame: frame, Site: site, Ours: ours, Theirs: theirs}
}

// err returns the first detected divergence, if any.
func (l *hashLog) err() error {
	if l.failure == nil {
		return nil
	}
	return l.failure
}

// Digest wire format: type byte, site byte, frame int32, hash uint64.
const (
	msgHash    = byte(7)
	hashMsgLen = 14
)

// appendHash appends the digest message to buf.
func appendHash(buf []byte, sender, frame int, hash uint64) []byte {
	buf = append(buf, msgHash, byte(sender))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(frame)))
	return binary.LittleEndian.AppendUint64(buf, hash)
}

func decodeHash(p []byte) (sender, frame int, hash uint64, err error) {
	if len(p) != hashMsgLen || p[0] != msgHash {
		return 0, 0, 0, fmt.Errorf("core: malformed hash message (%d bytes)", len(p))
	}
	return int(p[1]), int(int32(binary.LittleEndian.Uint32(p[2:]))), binary.LittleEndian.Uint64(p[6:]), nil
}
