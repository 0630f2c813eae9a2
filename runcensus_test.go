//go:build runcensus

package retrolock_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// coverageFloor is tier-1's statement coverage of internal/, in percent,
// below which the run census fails.
const coverageFloor = 91.6

// TestEveryInternalFuncRuns is the run census behind `make runcensus`. The
// linker census shows what the shipped binaries link; this one shows what
// the gates run. It collects statement coverage of internal/ from three
// sources:
//   - tier-1, `go test ./...` with -coverpkg=./internal/... (make qoe's
//     sweep is one of its tests);
//   - the command tests' re-executed binaries (retroplay, romtool,
//     experiment, ...): go test hands them its coverage directory through
//     GOCOVERDIR and folds what they write at exit into the profile;
//   - make paper's binary, cmd/experiment built with -cover and run once per
//     series in testdata/paper, its GOCOVERDIR converted by
//     `go tool covdata textfmt`.
//
// A function in internal/'s non-test files of which no statement ran in
// any of them fails the test unless testdata/unrun.txt names it with a
// reason; a line there whose function now runs, or is gone, fails too. It
// fails as well when tier-1's coverage of internal/ falls below
// coverageFloor.
func TestEveryInternalFuncRuns(t *testing.T) {
	dir := t.TempDir()
	run := func(env []string, name string, args ...string) {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Env = env
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
	}

	// go test points each test binary, and through GOCOVERDIR the commands
	// it re-executes, at one coverage directory, and folds the directory
	// into the profile when the binary's tests end.
	tier1 := filepath.Join(dir, "tier1.txt")
	run(nil, "go", "test", "-count=1", "-covermode=set", "-coverpkg=./internal/...", "-coverprofile="+tier1, "./...")

	exe, paper := filepath.Join(dir, "experiment"), filepath.Join(dir, "paper")
	if err := os.Mkdir(paper, 0o755); err != nil {
		t.Fatal(err)
	}
	// The main package must be instrumented too: its init installs the
	// hook that writes the counters at exit.
	run(nil, "go", "build", "-cover", "-covermode=set", "-coverpkg=./internal/...,./cmd/experiment", "-o", exe, "./cmd/experiment")
	goldens, err := filepath.Glob(filepath.Join("testdata", "paper", "*.golden"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no paper goldens: %v", err)
	}
	for _, g := range goldens {
		run(append(os.Environ(), "GOCOVERDIR="+paper), exe, "-series", strings.TrimSuffix(filepath.Base(g), ".golden"), "-chart=false")
	}
	paperProf := filepath.Join(dir, "paper.txt")
	run(nil, "go", "tool", "covdata", "textfmt", "-i="+paper, "-o="+paperProf)

	tier1Blocks := coverBlocks(t, tier1)
	merged := coverBlocks(t, tier1, paperProf)
	decls := internalFuncs(t)
	ran := map[string]bool{}   // file:line of a block that ran
	stmts := map[string]bool{} // file:line of any block
	for _, b := range merged {
		for l := b.start; l <= b.end; l++ {
			key := b.file + ":" + strconv.Itoa(l)
			stmts[key] = true
			ran[key] = ran[key] || b.ran
		}
	}
	unrun := map[string]bool{}
	lines := 0
	for key, ds := range decls {
		hasStmt, anyRan := false, false
		for _, d := range ds {
			for l := d.start; l <= d.end; l++ {
				k := d.file + ":" + strconv.Itoa(l)
				hasStmt = hasStmt || stmts[k]
				anyRan = anyRan || ran[k]
			}
		}
		if hasStmt && !anyRan {
			unrun[key] = true
			for _, d := range ds {
				lines += d.lines
			}
		}
	}
	settle(t, "unrun.txt", unrun, func(key string) bool { return decls[key] != nil },
		"no gate runs %s", "a gate runs it now", "a function in internal/")

	pct1, pct := statementCoverage(tier1Blocks), statementCoverage(merged)
	t.Logf("%d functions in internal/, %d run, %d never run (%d lines with doc comments)",
		len(decls), len(decls)-len(unrun), len(unrun), lines)
	t.Logf("statement coverage of internal/: tier-1 %.2f%%, with the paper binary %.2f%%", pct1, pct)
	if pct1 < coverageFloor {
		t.Errorf("tier-1 covers %.2f%% of internal/'s statements, below the %.1f%% floor", pct1, coverageFloor)
	}
}

// coverBlock is one block of a text coverage profile.
type coverBlock struct {
	file       string // slash path relative to the repo root
	start, end int    // lines
	stmts      int
	ran        bool
}

// coverBlocks reads text coverage profiles and returns the blocks of
// internal/'s files, each once: a block ran if it ran in any profile.
func coverBlocks(t *testing.T, profiles ...string) []coverBlock {
	byPos := map[string]int{} // index in blocks
	var blocks []coverBlock
	for _, prof := range profiles {
		raw, err := os.ReadFile(prof)
		if err != nil {
			t.Fatal(err)
		}
		// retrolock/internal/vm/cpu.go:12.34,15.2 3 1
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if strings.HasPrefix(line, "mode:") {
				continue
			}
			pos, counts, _ := strings.Cut(line, " ")
			colon := strings.LastIndex(pos, ":")
			if colon < 0 {
				t.Fatalf("%s: coverage profile line %q", prof, line)
			}
			var b coverBlock
			var c1, c2, count int
			if _, err := fmt.Sscanf(pos[colon+1:]+" "+counts, "%d.%d,%d.%d %d %d", &b.start, &c1, &b.end, &c2, &b.stmts, &count); err != nil {
				t.Fatalf("%s: coverage profile line %q: %v", prof, line, err)
			}
			b.file, b.ran = strings.TrimPrefix(pos[:colon], "retrolock/"), count > 0
			if !strings.HasPrefix(b.file, "internal/") {
				continue
			}
			if i, seen := byPos[pos]; seen {
				blocks[i].ran = blocks[i].ran || b.ran
				continue
			}
			byPos[pos] = len(blocks)
			blocks = append(blocks, b)
		}
	}
	if len(blocks) == 0 {
		t.Fatalf("no coverage of internal/ in %v", profiles)
	}
	return blocks
}

// statementCoverage is the percentage of blocks' statements that ran.
func statementCoverage(blocks []coverBlock) float64 {
	var all, ran int
	for _, b := range blocks {
		all += b.stmts
		if b.ran {
			ran += b.stmts
		}
	}
	return 100 * float64(ran) / float64(all)
}
