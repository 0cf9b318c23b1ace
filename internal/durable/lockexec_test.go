//go:build unix

// Multi-process lock contention tests: every scenario here crosses a
// real process boundary via re-exec of the test binary, because the
// flock semantics the output lock relies on — contention between
// processes, release on death — are invisible to in-process tests.
package durable_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pdt/internal/durable"
)

// lockHelperEnv selects the helper mode: the re-exec'd test binary
// checks it in TestMain before the testing framework parses flags.
const lockHelperEnv = "PDT_TEST_LOCK_HELPER"

func TestMain(m *testing.M) {
	switch os.Getenv(lockHelperEnv) {
	case "":
		os.Exit(m.Run())
	case "hold":
		// Acquire the lock named by argv's last element, print "held",
		// and hold until stdin closes.
		lockHelperHold(os.Args[len(os.Args)-1])
	case "try":
		// Try a non-blocking acquire and report the outcome.
		_, err := durable.AcquireLock(os.Args[len(os.Args)-1])
		if errors.Is(err, durable.ErrLocked) {
			fmt.Println("locked")
			os.Exit(0)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("acquired")
		os.Exit(0)
	}
	os.Exit(2)
}

func lockHelperHold(path string) {
	l, err := durable.AcquireLock(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("held")
	// Park until the parent closes stdin (or kills us).
	buf := make([]byte, 1)
	os.Stdin.Read(buf)
	l.Release()
	os.Exit(0)
}

// spawnHolder starts a child process that acquires and holds the
// lock, returning once the child confirms it holds it. Closing the
// returned pipe makes the child release and exit cleanly.
func spawnHolder(t *testing.T, path string) (*exec.Cmd, *os.File) {
	t.Helper()
	cmd := exec.Command(os.Args[0], path)
	cmd.Env = append(os.Environ(), lockHelperEnv+"=hold")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := out.Read(buf)
	if err != nil || !strings.HasPrefix(string(buf[:n]), "held") {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("holder never confirmed: %q err=%v", buf[:n], err)
	}
	return cmd, stdin.(*os.File)
}

// TestLockContendedAcrossProcesses: while another process holds the
// flock, this process sees ErrLocked both directly and from a child.
func TestLockContendedAcrossProcesses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lock")
	cmd, stdin := spawnHolder(t, path)
	defer func() { stdin.Close(); cmd.Wait() }()

	if _, err := durable.AcquireLock(path); !errors.Is(err, durable.ErrLocked) {
		t.Fatalf("AcquireLock against live cross-process holder: %v, want ErrLocked", err)
	}
	try := exec.Command(os.Args[0], path)
	try.Env = append(os.Environ(), lockHelperEnv+"=try")
	out, err := try.Output()
	if err != nil || strings.TrimSpace(string(out)) != "locked" {
		t.Fatalf("third-process probe: %q err=%v, want locked", out, err)
	}
}

// TestLockFreedWhenHolderSIGKILLed: the kernel must release the flock
// the instant the holding process dies, so a crashed pdbmerge never
// wedges the next run.
func TestLockFreedWhenHolderSIGKILLed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lock")
	cmd, stdin := spawnHolder(t, path)
	defer stdin.Close()

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	l, err := durable.AcquireLock(path)
	if err != nil {
		t.Fatalf("lock not freed by holder death: %v", err)
	}
	l.Release()
}
