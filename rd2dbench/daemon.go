package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one rd2d child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	setup  time.Duration // exec to the "listening on" stderr line
	exited chan struct{} // closed once the stderr drain has hit EOF
	tail   *bytes.Buffer // last stderr bytes, for error messages (owned by the drain until exited)
}

// startDaemon execs rd2d and waits for its "listening on" line, which it
// prints after binding and (with -statedir) rehydrating, even with -q.
// The rest of stderr is drained so the daemon never blocks on it.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	// A benchmark killed from outside takes its daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), tail: &bytes.Buffer{}}
	ready := make(chan string, 1)
	go func() {
		defer close(d.exited)
		br := bufio.NewReader(stderr)
		announced := false
		for {
			line, err := br.ReadString('\n')
			if !announced {
				if i := strings.Index(line, "listening on "); i >= 0 {
					announced = true
					ready <- strings.Fields(line[i+len("listening on "):])[0]
				}
			}
			if d.tail.Len() > 4096 {
				d.tail.Next(d.tail.Len() - 2048)
			}
			d.tail.WriteString(line)
			if err != nil {
				return
			}
		}
	}()
	select {
	case addr := <-ready:
		d.setup = time.Since(t0)
		d.addr = addr
		return d, nil
	case <-d.exited:
		d.cmd.Wait()
		return nil, fmt.Errorf("rd2d exited before listening: %s", d.tail.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("rd2d did not start listening within 60s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM (in-flight sessions finish and the
// report is complete when it exits) and waits for it. rd2d exits 1 when
// any session found races, so only exit codes above 1 are errors. rd2d
// installs its SIGTERM handler just after printing the listening line, so
// a set-up start stopped at once may die of the signal itself; it has
// nothing to drain, and every measured session has its summary before
// the measured daemon is stopped.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("rd2d did not drain within 60s")
	}
	err := d.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		ws, _ := ee.Sys().(syscall.WaitStatus)
		if ee.ExitCode() == 1 || ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
	}
	if err != nil {
		return fmt.Errorf("rd2d: %v: %s", err, d.tail.String())
	}
	return nil
}

// kill ends the daemon without a drain and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.cmd.Wait()
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the process's user+sys CPU time over all its threads.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name, which may hold spaces:
	// the state (field 3) comes first, utime is field 14 and stime 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the process's VmHWM in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
