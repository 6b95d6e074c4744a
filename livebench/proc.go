package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// rankProc is one running rank process and its JSON-lines channel.
type rankProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	enc  *json.Encoder
	msgs chan message // closed when the rank's standard output ends

	waitOnce sync.Once
	waitErr  error
}

// startRank launches one rank process with GOMAXPROCS=1.
func startRank(self string, args []string) (*rankProc, error) {
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	// A rank must not outlive a launcher that is killed mid-episode.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &rankProc{cmd: cmd, in: in, enc: json.NewEncoder(in), msgs: make(chan message)}
	go func() {
		defer close(p.msgs)
		dec := json.NewDecoder(out)
		for {
			var m message
			if err := dec.Decode(&m); err != nil {
				return
			}
			p.msgs <- m
		}
	}()
	return p, nil
}

func (p *rankProc) send(c command) error { return p.enc.Encode(c) }

// await returns the rank's next message, which must be the given event.
func (p *rankProc) await(event string, timeout time.Duration) (message, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m, ok := <-p.msgs:
		if !ok {
			return message{}, fmt.Errorf("rank exited while the launcher waited for %q", event)
		}
		if m.Event != event || (event == "episode" && m.Result == nil) {
			return message{}, fmt.Errorf("rank sent %q, want %q", m.Event, event)
		}
		return m, nil
	case <-timer.C:
		return message{}, fmt.Errorf("no %q from the rank within %v", event, timeout)
	}
}

// wait closes the rank's input, drains its output and reaps it, killing
// it if it has not exited within the timeout.
func (p *rankProc) wait(timeout time.Duration) error {
	p.waitOnce.Do(func() {
		p.in.Close()
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		for open := true; open; {
			select {
			case _, open = <-p.msgs:
			case <-timer.C:
				p.cmd.Process.Kill()
			}
		}
		p.waitErr = p.cmd.Wait()
	})
	return p.waitErr
}
