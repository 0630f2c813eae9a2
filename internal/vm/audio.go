package vm

// Audio device: a single square-wave voice. The game programs a frequency
// index and a volume through MMIO (AddrAudioF/AddrAudioV). The console keeps
// the oscillator's state, which is hashed and saved, and synthesizes no
// samples: a square wave of SamplesPerFrame samples a frame is a pure
// function of that state and the registers, and nothing in the program
// plays it. The state advances as if it had: one phase increment per sample.

// AudioRate is the oscillator's sample rate in Hz.
const AudioRate = 22050

// SamplesPerFrame is the number of samples a 60 FPS frame spans
// (22050/60 = 367.5, kept exact with a half-sample alternation).
const SamplesPerFrame = AudioRate / 60 // 367; every other frame adds one

// freqTable maps the 6-bit frequency index to Hz: a chromatic scale from
// A2 (110 Hz) upward, precomputed as integers (round(110 * 2^(i/12))).
var freqTable = [64]uint32{
	110, 117, 123, 131, 139, 147, 156, 165, 175, 185, 196, 208,
	220, 233, 247, 262, 277, 294, 311, 330, 349, 370, 392, 415,
	440, 466, 494, 523, 554, 587, 622, 659, 698, 740, 784, 831,
	880, 932, 988, 1047, 1109, 1175, 1245, 1319, 1397, 1480, 1568, 1661,
	1760, 1865, 1976, 2093, 2217, 2349, 2489, 2637, 2794, 2960, 3136, 3322,
	3520, 3729, 3951, 4186,
}

type audioState struct {
	phase   uint32 // 16.16 fixed-point oscillator phase
	oddTick bool   // alternates to realize the .5 sample/frame
}

// step advances the oscillator by one frame of samples at the current
// registers. Silence resets the phase. A tone adds the per-sample increment
// once per sample in one step: uint32 addition wraps, so inc*n is exactly n
// additions of inc.
func (a *audioState) step(freqIdx, vol byte) {
	n := uint32(SamplesPerFrame)
	if a.oddTick {
		n++
	}
	a.oddTick = !a.oddTick
	if freqIdx == 0 || vol == 0 {
		a.phase = 0
		return
	}
	inc := freqTable[freqIdx&0x3F] * 65536 / AudioRate // 16.16 phase increment
	a.phase += inc * n
}
