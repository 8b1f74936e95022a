package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPipeviewFlagConflicts: -pipeview runs the core outside the runner,
// so the outputs only the runner writes (-sites, -timeline) and sampling
// are usage errors beside it, each naming what it rejects and leaving no
// file behind; -pipeview alone prints the stage timeline.
func TestPipeviewFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dlvpsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out := filepath.Join(dir, "out.json")
	for _, tc := range []struct {
		args     []string
		exit     int
		mentions string
	}{
		{[]string{"-sites", out}, 2, "-sites"},
		{[]string{"-timeline", out}, 2, "-timeline"},
		{[]string{"-sample-intervals", "4"}, 2, "sampling"},
		{nil, 0, "fetch"},
	} {
		args := append([]string{"-workload", "perlbmk", "-instrs", "2000", "-pipeview", "3"}, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil && !errors.As(err, new(*exec.ExitError)) {
			t.Fatal(err)
		}
		if exit := cmd.ProcessState.ExitCode(); exit != tc.exit {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", args, exit, tc.exit, stderr.String())
		}
		if got := stdout.String() + stderr.String(); !strings.Contains(got, tc.mentions) {
			t.Errorf("%v: output does not mention %q:\n%s", args, tc.mentions, got)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: left %s behind", args, out)
		}
	}
}
