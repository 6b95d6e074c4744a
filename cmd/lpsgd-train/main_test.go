package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTrain compiles cmd/lpsgd-train into a temp dir and returns the
// binary path, skipping the test when no toolchain is available.
func buildTrain(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("binary-building test skipped in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available to build the binary")
	}
	bin := filepath.Join(t.TempDir(), "lpsgd-train")
	build := exec.Command(goTool, "build", "-o", bin, "repro/cmd/lpsgd-train")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lpsgd-train: %v\n%s", err, out)
	}
	return bin
}

// TestClusterRejectsNegativeFlagsBeforeForking: a negative duration or
// cadence is a usage error of the parent, reported as exit 2 before
// any rank is forked — not a forked child's complaint that leaves rank
// 0 waiting out the rendezvous timeout.
func TestClusterRejectsNegativeFlagsBeforeForking(t *testing.T) {
	bin := buildTrain(t)
	for _, flag := range []string{"-step-deadline", "-rejoin-window", "-heartbeat", "-heartbeat-timeout", "-telemetry-every"} {
		t.Run(strings.TrimPrefix(flag, "-"), func(t *testing.T) {
			value := "-1s"
			if flag == "-telemetry-every" {
				value = "-1"
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "-cluster", "2", flag, value,
				"-epochs", "1", "-train-samples", "64", "-test-samples", "32")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			start := time.Now()
			err := cmd.Run()
			elapsed := time.Since(start)
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("%s %s: got %v, want exit status 2\nstderr: %s", flag, value, err, stderr.String())
			}
			if elapsed > 5*time.Second {
				t.Fatalf("%s %s: took %v to fail, want under 5s", flag, value, elapsed)
			}
			if !strings.Contains(stderr.String(), flag+" must not be negative") {
				t.Fatalf("%s %s: stderr does not name the flag: %q", flag, value, stderr.String())
			}
		})
	}
}

// TestClusterClampsHeartbeatTimeoutOnEveryRank: a heartbeat timeout
// shorter than the interval is clamped to the interval, the same way
// on the coordinator and on the forked ranks, so the run trains to the
// end instead of a child refusing the flags while rank 0 waits out the
// rendezvous.
func TestClusterClampsHeartbeatTimeoutOnEveryRank(t *testing.T) {
	bin := buildTrain(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-cluster", "2", "-heartbeat", "1s", "-heartbeat-timeout", "100ms",
		"-epochs", "1", "-train-samples", "64", "-test-samples", "32")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("got %v, want exit status 0\nstderr: %s", err, stderr.String())
	}
}
