package main

import (
	"bytes"
	"testing"
)

func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 300); err != nil {
		t.Fatalf("%v\n%s", err, out.Bytes())
	}
}
