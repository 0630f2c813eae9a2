// Quickstart: the smallest complete use of the library. Two players run the
// same Pong ROM on replicated consoles, joined by an emulated 80 ms
// round-trip link and kept in lockstep by the paper's sync algorithm. The
// harness builds both sites with internal/rig and runs them on a virtual
// clock, so ten seconds of play finish instantly and deterministically.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"retrolock/internal/harness"
)

func main() {
	if err := run(os.Stdout, 600); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, frames int) error {
	res, err := harness.Run(harness.Config{RTT: 80 * time.Millisecond, Jitter: 2 * time.Millisecond,
		Loss: 0.01, Game: "pong", Frames: frames, Seed: 42})
	if err != nil {
		return err
	}
	for site, s := range res.Sites {
		fmt.Fprintf(w, "site %d: %d frames at %.1f FPS, state %016x\n", site, s.Frames, s.FPS, s.FinalHash)
	}
	if !res.Converged {
		return fmt.Errorf("replicas diverged")
	}
	fmt.Fprintf(w, "replicas converged after %v of virtual play\n", res.Elapsed.Round(time.Millisecond))
	return nil
}
