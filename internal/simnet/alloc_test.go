package simnet_test

import (
	"testing"
	"time"

	"retrolock/internal/netem"
	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

// A steady-state send over an emulated link, its delivery and its receipt
// allocate nothing: the hop is cached, the emulator appends its plan into
// the sender's scratch and the flight records and receive ring are reused.
func TestSendToNetemDoesNotAllocate(t *testing.T) {
	v := vclock.NewVirtual(time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC))
	n := simnet.New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	n.SetLink("a", "b", netem.New(netem.Config{
		Delay: 5 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.05,
		Duplicate: 0.05, Reorder: 0.05, Seed: 3,
	}))
	payload := make([]byte, 33)
	var recv int
	step := func() {
		if err := a.SendTo("b", payload); err != nil {
			t.Fatalf("SendTo: %v", err)
		}
		v.Sleep(20 * time.Millisecond)
		for {
			if _, ok := b.TryRecv(); !ok {
				break
			}
			recv++
		}
	}
	<-v.Go(func() {
		for range 100 {
			step()
		}
		if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
			t.Errorf("a steady-state SendTo over netem allocates %.2f times", allocs)
		}
	})
	if recv == 0 {
		t.Fatal("nothing was delivered")
	}
}
