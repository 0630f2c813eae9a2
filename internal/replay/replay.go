// Package replay records the merged input sequence of a game session and
// replays it against a fresh machine, verifying the determinism assumption
// the whole approach rests on (§2, §5: "with the same initial state and same
// input sequence, the VM always produces the same sequence of output
// states").
//
// A Log doubles as a match recording: replaying it on any machine booted
// from the same ROM reproduces the session frame by frame, which is also how
// divergence bugs are diagnosed in the field.
package replay

import (
	"encoding/binary"
	"fmt"

	"retrolock/internal/container"
)

// Machine is the minimal game VM surface replay needs (satisfied by
// vm.Console and by core.Machine implementations).
type Machine interface {
	StepFrame(input uint16)
	StateHash() uint64
}

// CheckpointEvery is the default frame interval at which state hashes are
// embedded in a recording.
const CheckpointEvery = 60

// Log is a recorded input sequence with periodic state checkpoints.
type Log struct {
	// Game names the ROM this was recorded against.
	Game string
	// CheckpointEvery is the hash checkpoint interval (0: only final).
	CheckpointEvery int
	// Inputs holds the merged input word of every executed frame.
	Inputs []uint16
	// Checkpoints holds the state hash after frames k*CheckpointEvery-1
	// (i.e. Checkpoints[0] is the hash after CheckpointEvery frames).
	Checkpoints []uint64
	// Final is the state hash after the last frame.
	Final uint64
}

// Recorder captures inputs and checkpoints as a session progresses.
type Recorder struct {
	log     Log
	machine Machine
}

// NewRecorder starts a recording for machine. checkpointEvery <= 0 uses the
// default interval.
func NewRecorder(game string, machine Machine, checkpointEvery int) *Recorder {
	if checkpointEvery <= 0 {
		checkpointEvery = CheckpointEvery
	}
	return &Recorder{
		log:     Log{Game: game, CheckpointEvery: checkpointEvery},
		machine: machine,
	}
}

// OnFrame records one executed frame. Call it after machine.StepFrame with
// the merged input that was fed in (core.Session's onFrame callback fits
// directly).
func (r *Recorder) OnFrame(input uint16) {
	r.log.Inputs = append(r.log.Inputs, input)
	if len(r.log.Inputs)%r.log.CheckpointEvery == 0 {
		r.log.Checkpoints = append(r.log.Checkpoints, r.machine.StateHash())
	}
	r.log.Final = r.machine.StateHash()
}

// Log returns the recording so far (shallow copy; slices shared).
func (r *Recorder) Log() Log { return r.log }

// Verify replays the log against a freshly booted machine and checks every
// checkpoint and the final hash. A mismatch means the machine is not
// deterministic — or was booted from different initial state.
func (l *Log) Verify(fresh Machine) error {
	for i, in := range l.Inputs {
		fresh.StepFrame(in)
		frame := i + 1
		if l.CheckpointEvery > 0 && frame%l.CheckpointEvery == 0 {
			idx := frame/l.CheckpointEvery - 1
			if idx < len(l.Checkpoints) && fresh.StateHash() != l.Checkpoints[idx] {
				return fmt.Errorf("replay: divergence at frame %d (checkpoint %d): %#x != %#x",
					frame, idx, fresh.StateHash(), l.Checkpoints[idx])
			}
		}
	}
	if len(l.Inputs) > 0 && fresh.StateHash() != l.Final {
		return fmt.Errorf("replay: final state %#x differs from recorded %#x", fresh.StateHash(), l.Final)
	}
	return nil
}

// RKRP is a container frame (see internal/container) whose body is fixed
// fields: game name (u16 length), checkpoint interval u32, inputs (u32 count
// of u16), checkpoints (u32 count of u64), final hash u64.
const (
	logMagic   = "RKRP"
	logVersion = 1
)

// Encode serializes the log.
func (l *Log) Encode() []byte {
	buf := make([]byte, 0, 32+len(l.Game)+2*len(l.Inputs)+8*len(l.Checkpoints))
	buf = container.Begin(buf, logMagic, logVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(l.Game)))
	buf = append(buf, l.Game...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.CheckpointEvery))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.Inputs)))
	for _, in := range l.Inputs {
		buf = binary.LittleEndian.AppendUint16(buf, in)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.Checkpoints)))
	for _, h := range l.Checkpoints {
		buf = binary.LittleEndian.AppendUint64(buf, h)
	}
	buf = binary.LittleEndian.AppendUint64(buf, l.Final)
	return container.Seal(buf)
}

// Decode parses a serialized log.
func Decode(data []byte) (*Log, error) {
	body, err := container.Open(data, logMagic, logVersion)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	f := container.NewReader(body)
	l := &Log{Game: string(f.Bytes(int(f.U16()))), CheckpointEvery: int(f.U32())}
	l.Inputs = make([]uint16, f.Count(2))
	for i := range l.Inputs {
		l.Inputs[i] = f.U16()
	}
	l.Checkpoints = make([]uint64, f.Count(8))
	for i := range l.Checkpoints {
		l.Checkpoints[i] = f.U64()
	}
	l.Final = f.U64()
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("replay: truncated log: %w", err)
	}
	return l, nil
}
