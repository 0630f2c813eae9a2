package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The program under test runs in a re-executed child of the benchmark
// binary, so its CPU time and resident-set high-water mark are its own and
// not the load generator's, and so each workload gets a fresh heap. Parent
// and child talk over the child's stdin/stdout, one JSON value per line; the
// first line the parent writes is the child's spec.

type childProc struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	spawned time.Time // taken just before the process is started
}

var (
	liveMu   sync.Mutex
	liveKids = map[*childProc]struct{}{}
)

// spawnChild starts this binary again in the given child mode and hands it
// spec. Every process the benchmark starts is pinned to the same GOMAXPROCS.
func spawnChild(mode string, spec any) (*childProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", mode, err)
	}
	cmd := exec.Command(exe, "-child", mode)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs()))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", mode, err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", mode, err)
	}
	c := &childProc{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16), spawned: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", mode, err)
	}
	liveMu.Lock()
	liveKids[c] = struct{}{}
	liveMu.Unlock()
	if err := c.send(spec); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// send writes one JSON line to the child.
func (c *childProc) send(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := c.in.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("write to child: %w", err)
	}
	return nil
}

// recv reads the child's next JSON line into v.
func (c *childProc) recv(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read from child: %w", err)
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("child said %q: %w", line, err)
	}
	return nil
}

// wait closes the child's stdin and waits for a clean exit.
func (c *childProc) wait() error {
	c.in.Close()
	err := c.cmd.Wait()
	c.forget()
	if err != nil {
		return fmt.Errorf("child: %w", err)
	}
	return nil
}

// kill stops the child and reaps it.
func (c *childProc) kill() {
	c.in.Close()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
	c.forget()
}

func (c *childProc) forget() {
	liveMu.Lock()
	delete(liveKids, c)
	liveMu.Unlock()
}

// killAllChildren is the watchdog's and the error paths' sweep: no process
// the benchmark started may outlive it.
func killAllChildren() {
	liveMu.Lock()
	kids := make([]*childProc, 0, len(liveKids))
	for c := range liveKids {
		kids = append(kids, c)
	}
	liveMu.Unlock()
	for _, c := range kids {
		c.kill()
	}
}

// childIO is the child's end of the pipe pair.
type childIO struct {
	in   *bufio.Reader
	out  *json.Encoder
	mu   sync.Mutex
	done atomic.Bool // the last result is on its way; stdin closing is now expected
}

func newChildIO() *childIO {
	return &childIO{in: bufio.NewReaderSize(os.Stdin, 1<<16), out: json.NewEncoder(os.Stdout)}
}

// recv reads the parent's next JSON line into v; io.EOF means the parent
// closed the pipe (or died) and the child must stop.
func (c *childIO) recv(v any) error {
	line, err := c.in.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

func (c *childIO) emit(v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Encode(v)
}

// finish emits the child's last result. The parent closes stdin once it has
// read it, which exitWhenOrphaned must not mistake for the parent dying.
func (c *childIO) finish(v any) error {
	c.done.Store(true)
	return c.emit(v)
}

// exitWhenOrphaned ends a child whose parent went away mid-run: a child that
// takes no further commands would otherwise run to completion unattended.
// Call it once the spec has been read.
func (c *childIO) exitWhenOrphaned() {
	go func() {
		var sink json.RawMessage
		for c.recv(&sink) == nil {
		}
		if !c.done.Load() {
			os.Exit(3)
		}
	}()
}
