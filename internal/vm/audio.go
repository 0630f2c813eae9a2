package vm

// Audio device: a single square-wave voice. The game programs a frequency
// index and a volume through MMIO (AddrAudioF/AddrAudioV); once per frame
// the console synthesizes SamplesPerFrame signed 16-bit samples. Synthesis
// is pure integer arithmetic, so replicas produce bit-identical audio — the
// audio phase is part of the hashed machine state.

// AudioRate is the output sample rate in Hz.
const AudioRate = 22050

// SamplesPerFrame is the number of samples generated per 60 FPS frame
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
	last    []int16
}

// step synthesizes one frame of audio from the current registers.
func (a *audioState) step(freqIdx, vol byte) {
	n := SamplesPerFrame
	if a.oddTick {
		n++
	}
	a.oddTick = !a.oddTick

	if cap(a.last) < n {
		a.last = make([]int16, n)
	}
	a.last = a.last[:n]

	if freqIdx == 0 || vol == 0 {
		a.phase = 0
		for i := range a.last {
			a.last[i] = 0
		}
		return
	}
	hz := freqTable[freqIdx&0x3F]
	inc := hz * 65536 / AudioRate // 16.16 phase increment
	amp := int16(uint16(vol) << 7)
	for i := range a.last {
		a.phase += inc
		if a.phase&0x8000 != 0 {
			a.last[i] = amp
		} else {
			a.last[i] = -amp
		}
	}
}
