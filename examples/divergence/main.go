// Divergence: the state-digest exchange that guards the paper's determinism
// assumption (§5). Two replicas play Tank Battle in lockstep; before frame
// 150 one console's RAM is corrupted by a single byte — standing in for the
// nondeterminism hazards §5 warns about (clocks, environment, disk files
// feeding the game) — and within one digest interval the run fails, naming
// the frame.
//
//	go run ./examples/divergence
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"retrolock/internal/chaos"
	"retrolock/internal/core"
)

func main() {
	if err := run(os.Stdout, 600); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, frames int) error {
	const at = 150
	_, err := chaos.Run(chaos.Scenario{Name: "divergence", Game: "tanks", Frames: frames, Seed: 3,
		Corrupt: &chaos.Corruption{Site: 1, Frame: at, Addr: 0x8200, XOR: 0x01}})
	var de *core.DivergenceError
	if !errors.As(err, &de) {
		return fmt.Errorf("the corruption before frame %d went undetected (run ended with %v)", at, err)
	}
	fmt.Fprintf(w, "corrupted one byte of site 1's RAM before frame %d; detected at frame %d:\n  %v\n", at, de.Frame, de)
	return nil
}
