package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Source yields the events of a trace one at a time, in trace order. Next
// returns io.EOF after the last event. The wire decoder and the text
// scanner produce events this way, and wire clients send a Source
// (SendSource), so a stream never has to be materialized in memory. A
// consumer stamps each event with hb.Engine.Process before detecting, as
// rd2d's session runner does.
//
// A Source assigns each event its Seq in stream order, exactly like
// Trace.Append does for in-memory traces.
type Source interface {
	Next() (Event, error)
}

// SliceSource adapts an in-memory trace to the Source interface.
type SliceSource struct {
	events []Event
	pos    int
}

// Source returns a Source over the trace's events.
func (tr *Trace) Source() *SliceSource { return &SliceSource{events: tr.Events} }

// Next returns the next event, or io.EOF.
func (s *SliceSource) Next() (Event, error) {
	if s.pos >= len(s.events) {
		return Event{}, io.EOF
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

// TextSource streams events out of the text trace format without holding
// the whole trace: one line is decoded per Next call. Blank lines and '#'
// comments are skipped, and errors carry the 1-based line number, exactly
// like Parse.
type TextSource struct {
	sc     *bufio.Scanner
	lineNo int
	seq    int
	err    error
}

// NewTextSource returns a streaming decoder for the text trace format.
func NewTextSource(r io.Reader) *TextSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &TextSource{sc: sc}
}

// Next decodes the next event line, or returns io.EOF at end of input.
func (s *TextSource) Next() (Event, error) {
	if s.err != nil {
		return Event{}, s.err
	}
	for s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := ParseEvent(line)
		if err != nil {
			s.err = fmt.Errorf("trace: line %d: %v", s.lineNo, err)
			return Event{}, s.err
		}
		e.Seq = s.seq
		s.seq++
		return e, nil
	}
	if err := s.sc.Err(); err != nil {
		s.err = err
	} else {
		s.err = io.EOF
	}
	return Event{}, s.err
}

// LimitSource yields at most n events from an underlying source, then
// io.EOF. The fault-injection harness uses it to truncate event streams at
// exact event boundaries (as opposed to byte-level truncation, which the
// wire-format injectors cover).
type LimitSource struct {
	src Source
	n   int
}

// Limit wraps src so that at most n events are yielded.
func Limit(src Source, n int) *LimitSource { return &LimitSource{src: src, n: n} }

// Next returns the next event while the budget lasts, then io.EOF.
func (l *LimitSource) Next() (Event, error) {
	if l.n <= 0 {
		return Event{}, io.EOF
	}
	l.n--
	return l.src.Next()
}

// ReadAll drains a Source into an in-memory trace.
func ReadAll(src Source) (*Trace, error) {
	tr := &Trace{}
	for {
		e, err := src.Next()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		tr.Append(e)
	}
}
