// Latencysweep: a miniature of the paper's Figure 1/2 sweep using the
// experiment harness directly — how to evaluate the sync module under your
// own network assumptions.
//
//	go run ./examples/latencysweep
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
	if err := run(os.Stdout, 900); err != nil { // 15 virtual seconds per point
		log.Fatal(err)
	}
}

func run(w io.Writer, frames int) error {
	cfg := harness.PaperCalibration()
	cfg.Frames, cfg.Seed, cfg.Game = frames, 7, "tanks"
	fmt.Fprintln(w, "RTT      frame time   deviation    FPS    cross-site sync")
	for _, ms := range []time.Duration{0, 50, 100, 140, 180, 250} { // 140: the paper's maximum
		cfg.RTT = ms * time.Millisecond
		res, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		s := res.Sites[0]
		fmt.Fprintf(w, "%-7v  %7.2f ms   %6.2f ms   %5.1f   %8.2f ms\n",
			cfg.RTT, s.FrameTimes.Mean, s.FrameTimes.MAD, s.FPS, res.Sync.AbsMean)
	}
	fmt.Fprintln(w, "\nthe paper recommends RTT <= 140 ms for systems built this way (§4.1)")
	return nil
}
