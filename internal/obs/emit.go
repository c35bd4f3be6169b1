package obs

import (
	"io"
	"time"
)

// Emitter periodically writes registry snapshots to a writer as text
// blocks (FormatSnapshot) — the long-run path (-stats-interval on rd2 and
// rd2bench). Machines read /metrics and /debug/vars instead.
type Emitter struct {
	stop chan struct{}
	done chan struct{}
}

// StartEmitter begins writing FormatSnapshot of reg to w every interval.
// All writes happen on the emitter's own goroutine, including the final
// snapshot flushed by Stop, so an unsynchronized writer is safe as long as
// nothing else writes it.
func StartEmitter(w io.Writer, reg *Registry, interval time.Duration) *Emitter {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	e := &Emitter{stop: make(chan struct{}), done: make(chan struct{})}
	emit := func() {
		io.WriteString(w, FormatSnapshot(reg.Snapshot())) //nolint:errcheck // monitoring is best-effort
	}
	go func() {
		defer close(e.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				emit()
			case <-e.stop:
				emit() // final snapshot so short runs emit at least once
				return
			}
		}
	}()
	return e
}

// Stop flushes one final snapshot and stops the emitter. Safe to call
// once; blocks until the final write lands.
func (e *Emitter) Stop() {
	close(e.stop)
	<-e.done
}
