package main

// Durable sessions (DESIGN.md §15): with -statedir every resumable session
// (one that opened with a client session id) is persistently checkpointed,
// so a daemon crash — SIGKILL included — loses nothing a client cannot
// replay. Two files per session under <statedir>/<sid>/:
//
//   wal        a valid RDB2 stream: the stream header, then every accepted
//              events frame appended verbatim (byte-identical: the wire
//              format has no encoding freedom) *before* the frame's chunk
//              is acknowledged to the client. A frame the client saw acked
//              is therefore on disk; a torn tail frame was never acked and
//              the client replays it on resume.
//   snap.ckpt  an RDS1 CRC-framed snapshot (internal/wire.StateWriter) of
//              the session at a frame boundary: decoder state (interning,
//              chunk cursor, degradation counters), happens-before engine
//              clocks, merged detector state, reporter seq, and metadata.
//              Written to a temp file and renamed, so a *process* crash can
//              never tear it; a machine crash without -fsync can, and the
//              loader falls back to replaying the WAL from byte zero.
//
// Recovery replays the WAL tail from the snapshot's frame offset through
// the ordinary decode → queue → worker path, with the JSONL reporter's
// suppression window (core.SessionReporter.Restore) making regenerated
// race records silent up to the report file's durable high-water mark.
// Verdicts after a crash+restart are byte-identical to the uninterrupted
// run because replay *is* the run: same bytes, same decoder state, same
// engine clocks, same detector state.
//
// Checkpoints happen only on the session worker (or fleet quantum) at
// frame boundaries the decoder hook published, so the snapshot's three
// states agree on a single stream position. fsync policy is -fsync
// off|ckpt|always: the page cache survives a process SIGKILL, so even
// "off" is crash-safe against process death; "ckpt"/"always" extend the
// guarantee to machine crashes.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Checkpoint metrics. All sit on the obscheck zero-alloc disabled path.
var (
	obsCkptSnapshots  = obs.GetCounter("rd2d.ckpt.snapshots")
	obsCkptBytes      = obs.GetCounter("rd2d.ckpt.bytes")
	obsCkptNs         = obs.GetCounter("rd2d.ckpt.ns")
	obsCkptWalAppends = obs.GetCounter("rd2d.ckpt.wal_appends")
	obsCkptRestores   = obs.GetCounter("rd2d.ckpt.restores")
	obsCkptTorn       = obs.GetCounter("rd2d.ckpt.torn_recoveries")
)

// fsync policy for the state dir.
const (
	fsyncOff    = iota // never fsync: crash-safe against process death only
	fsyncCkpt          // fsync WAL + snapshot at each checkpoint
	fsyncAlways        // additionally fsync the WAL on every frame append
)

func parseFsyncMode(s string) (int, error) {
	switch s {
	case "off":
		return fsyncOff, nil
	case "ckpt":
		return fsyncCkpt, nil
	case "always":
		return fsyncAlways, nil
	}
	return 0, fmt.Errorf("unknown -fsync mode %q (want off, ckpt, or always)", s)
}

// DefaultCkptEvery is the default checkpoint cadence, in events.
const DefaultCkptEvery = 4096

// errDurClosed marks WAL appends after the session's state was destroyed.
var errDurClosed = errors.New("durable: session state destroyed")

// boundary is a frame boundary the decoder hook published: the WAL offset
// where the frame starts, the cumulative event count of all frames before
// it, and the decoder's cross-frame state at that point. A snapshot taken
// at a boundary resumes by replaying the WAL from off — re-decoding the
// boundary's own frame first.
type boundary struct {
	off int64
	cum int
	st  wire.DecoderState
}

// durSession is one session's persistent state: the open WAL and the FIFO
// of frame boundaries the worker may checkpoint at. The hook side (WAL
// append, boundary publish) runs on the connection read loop; the
// checkpoint side (boundary take, snapshot) runs on the session worker;
// mu covers the shared fields.
type durSession struct {
	d     *daemon
	sid   string
	dir   string
	every int // checkpoint cadence in events
	fsync int

	mu       sync.Mutex
	wal      *os.File
	walOff   int64
	bounds   []boundary
	walErr   error
	buf      []byte // frame re-encode scratch (hook side only)
	lastCkpt int    // events at the last snapshot (worker + rehydrator)
	force    bool   // replayed a WAL tail: snapshot at the next boundary

	// Worker-side only.
	ckptErr error // first snapshot failure; disables further snapshots
	ckpts   int
}

// sanitizeSID maps a client session id to a filesystem-safe directory
// name: the id itself when it is plain, a hex encoding otherwise. Plain
// ids never start with "enc-" (those are encoded), so the mapping is
// injective.
func sanitizeSID(sid string) string {
	plain := sid != "" && len(sid) <= 64 && sid[0] != '.' && !hasPrefix(sid, "enc-")
	for i := 0; plain && i < len(sid); i++ {
		c := sid[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-'
		plain = plain && ok
	}
	if plain {
		return sid
	}
	return "enc-" + hex.EncodeToString([]byte(sid))
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// openDurSession creates the state dir for a brand-new durable session,
// discarding any stale leftovers under the same id (a fresh session with a
// reused sid supersedes whatever a previous life left behind — resident
// sessions never reach here, routeSession resumes them).
func (d *daemon) openDurSession(sid, tenant string) (*durSession, error) {
	dir := filepath.Join(d.cfg.stateDir, sanitizeSID(sid))
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("durable: clearing %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	hdr := wire.AppendStreamHeader(nil, sid, tenant)
	if _, err := wal.Write(hdr); err != nil {
		wal.Close()
		return nil, fmt.Errorf("durable: wal header: %w", err)
	}
	return &durSession{
		d:      d,
		sid:    sid,
		dir:    dir,
		every:  d.ckptEvery(),
		fsync:  d.cfg.fsyncMode,
		wal:    wal,
		walOff: int64(len(hdr)),
	}, nil
}

func (d *daemon) ckptEvery() int {
	if d.cfg.ckptEvery > 0 {
		return d.cfg.ckptEvery
	}
	return DefaultCkptEvery
}

// hook returns the decoder's OnFrameAccepted callback: append the accepted
// frame to the WAL and publish the pre-frame boundary, all before the
// decoder dispatches the frame (and so before its chunk is acked). An
// append failure fails the decode — with -statedir the durability contract
// is part of accepting bytes, so an unwritable WAL refuses ingest loudly
// instead of silently dropping coverage.
func (ds *durSession) hook(dec *wire.Decoder) func(byte, []byte) error {
	return func(kind byte, payload []byte) error {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		if ds.walErr != nil {
			return ds.walErr
		}
		b := boundary{off: ds.walOff, cum: dec.Events(), st: dec.State()}
		ds.buf = wire.AppendFrame(ds.buf[:0], kind, payload)
		if n := ds.d.cfg.injectWalCrash; n > 0 && ds.d.walAppendN.Add(1) == int64(n) {
			// Injected machine crash mid-append: half the frame reaches the
			// disk, then the process dies without further ado.
			ds.wal.Write(ds.buf[:len(ds.buf)/2])
			ds.wal.Sync()
			faultinject.KillSelf()
		}
		if _, err := ds.wal.Write(ds.buf); err != nil {
			ds.walErr = err
			return fmt.Errorf("durable: wal append: %w", err)
		}
		ds.walOff += int64(len(ds.buf))
		if ds.fsync == fsyncAlways {
			if err := ds.wal.Sync(); err != nil {
				ds.walErr = err
				return fmt.Errorf("durable: wal fsync: %w", err)
			}
		}
		ds.bounds = append(ds.bounds, b)
		obsCkptWalAppends.Inc()
		return nil
	}
}

// takeBoundary resolves the worker's position against the published
// boundaries: boundaries strictly behind events are dropped (missed
// checkpoint opportunities — never incorrect), and when the cadence (or a
// post-replay force) makes a snapshot due, the latest boundary exactly at
// events is popped and returned. Duplicate-chunk frames publish zero-event
// boundaries at the same cum; the latest wins so a resume replays the
// least.
func (ds *durSession) takeBoundary(events int) (boundary, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	i := 0
	for i < len(ds.bounds) && ds.bounds[i].cum < events {
		i++
	}
	ds.bounds = ds.bounds[i:]
	if !ds.force && events-ds.lastCkpt < ds.every {
		return boundary{}, false
	}
	j := 0
	for j < len(ds.bounds) && ds.bounds[j].cum == events {
		j++
	}
	if j == 0 {
		return boundary{}, false
	}
	b := ds.bounds[j-1]
	ds.bounds = ds.bounds[j:]
	return b, true
}

// ckptDone records a successful snapshot at cum events.
func (ds *durSession) ckptDone(cum int) {
	ds.mu.Lock()
	ds.lastCkpt = cum
	ds.force = false
	ds.mu.Unlock()
}

// pushBoundary publishes a boundary directly (the WAL replay path, where
// frames are already on disk and only the positions are rebuilt).
func (ds *durSession) pushBoundary(b boundary) {
	ds.mu.Lock()
	ds.bounds = append(ds.bounds, b)
	ds.mu.Unlock()
}

// destroy closes and removes the session's on-disk state — the session
// completed (summary written, TTL expired, or drain) and its durability
// obligation ended with it.
func (ds *durSession) destroy() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.wal != nil {
		ds.wal.Close()
		ds.wal = nil
	}
	ds.walErr = errDurClosed
	os.RemoveAll(ds.dir)
}

// snapMeta is the snapshot's metadata section.
type snapMeta struct {
	SID         string
	Tenant      string
	Spec        string // default spec at snapshot time; mismatch discards the state
	Events      int    // cumulative events at the boundary
	WalOff      int64  // WAL offset resume replays from
	Resumes     int
	ReporterSeq uint64 // JSONL records written for this session so far
	Registered  []trace.ObjID
	DecState    wire.DecoderState
}

// maybeCheckpoint snapshots the session at the current position when a
// published boundary lands exactly here and the cadence (or a post-replay
// force) says it is due. Called by the worker (per-conn or fleet) before
// processing each event, so the engine has stamped exactly the events the
// boundary covers. A degraded or failed session is never checkpointed —
// partial state must not shadow the honest WAL.
func (s *session) maybeCheckpoint() {
	ds := s.dur
	if ds == nil || ds.ckptErr != nil || s.panicked || s.procErr != nil {
		return
	}
	b, ok := ds.takeBoundary(s.events)
	if !ok {
		return
	}
	if err := s.checkpoint(b); err != nil {
		ds.ckptErr = err
		s.logf("checkpoint failed (continuing without snapshots, WAL still covers the session): %v", err)
		return
	}
	ds.ckptDone(b.cum)
	ds.ckpts++
}

// checkpoint writes one snapshot at boundary b: quiesce and export the
// detection state, serialize, and atomically replace snap.ckpt.
func (s *session) checkpoint(b boundary) error {
	ds := s.dur
	start := time.Now()
	var det *core.DetectorState
	var err error
	if s.p != nil {
		det, err = s.p.ExportState()
		if err != nil {
			return err
		}
	} else {
		det = s.runner.det.ExportState()
	}
	en := s.en.ExportState()
	// Reporter seq after the export barrier: every race from events <= b.cum
	// has been written (pipeline OnRace runs on shard goroutines; the
	// barrier is the quiesce point). The JSONL file is written unbuffered,
	// so its on-disk high-water mark is always >= any snapshot's seq.
	var rseq uint64
	if s.sr != nil {
		rseq = s.sr.Seq()
	}
	meta := snapMeta{
		SID:         s.sid,
		Tenant:      s.tenant,
		Spec:        s.d.cfg.defaultSpec,
		Events:      b.cum,
		WalOff:      b.off,
		ReporterSeq: rseq,
		DecState:    b.st,
	}
	s.mu.Lock()
	meta.Resumes = s.resumes
	s.mu.Unlock()
	for obj := range s.registered {
		meta.Registered = append(meta.Registered, obj)
	}
	sort.Slice(meta.Registered, func(i, j int) bool { return meta.Registered[i] < meta.Registered[j] })

	var buf bytes.Buffer
	if err := writeSnapshot(&buf, &meta, en, det); err != nil {
		return err
	}
	data := buf.Bytes()

	if ds.fsync >= fsyncCkpt {
		// The snapshot references WAL offsets; make the WAL durable first.
		// (nil mid-rehydration: replayed frames are already on disk.)
		ds.mu.Lock()
		var werr error
		if ds.wal != nil {
			werr = ds.wal.Sync()
		}
		ds.mu.Unlock()
		if werr != nil {
			return werr
		}
	}
	path := filepath.Join(ds.dir, "snap.ckpt")
	if n := s.d.cfg.injectCkptCrash; n > 0 && s.d.snapshotN.Add(1) == int64(n) {
		// Injected fsync-less machine crash: a torn snapshot lands in place
		// (bypassing the tmp+rename discipline, which a pure process crash
		// cannot defeat), then the process dies. Recovery must reject it by
		// CRC and fall back to genesis WAL replay.
		os.WriteFile(path, data[:len(data)/2], 0o644)
		faultinject.KillSelf()
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if ds.fsync >= fsyncCkpt {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if ds.fsync >= fsyncCkpt {
		if dirf, err := os.Open(ds.dir); err == nil {
			dirf.Sync()
			dirf.Close()
		}
	}
	obsCkptSnapshots.Inc()
	obsCkptBytes.Add(uint64(len(data)))
	obsCkptNs.Add(uint64(time.Since(start)))
	return nil
}

// --- Snapshot serialization ------------------------------------------------

// Snapshot section kinds.
const (
	snapSecMeta     = 1
	snapSecEngine   = 2
	snapSecDetector = 3
)

func writeSnapshot(w io.Writer, meta *snapMeta, en *hb.EngineState, det *core.DetectorState) error {
	sw := wire.NewStateWriter(w)

	sw.Begin(snapSecMeta)
	sw.String(meta.SID)
	sw.String(meta.Tenant)
	sw.String(meta.Spec)
	sw.Varint(int64(meta.Events))
	sw.Varint(meta.WalOff)
	sw.Varint(int64(meta.Resumes))
	sw.Uvarint(meta.ReporterSeq)
	sw.Uvarint(uint64(len(meta.Registered)))
	for _, obj := range meta.Registered {
		sw.Varint(int64(obj))
	}
	st := &meta.DecState
	sw.Uvarint(uint64(st.Version))
	sw.String(st.SID)
	sw.String(st.Tenant)
	sw.Uvarint(uint64(len(st.Intern)))
	for _, s := range st.Intern {
		sw.String(s)
	}
	sw.Varint(int64(st.Events))
	sw.Varint(int64(st.Frames))
	sw.Uvarint(st.ExpectChunk)
	sw.Bool(st.SeenChunk)
	sw.Varint(int64(st.DupChunks))
	sw.Varint(st.SkippedBytes)
	sw.Varint(int64(st.SkippedFrames))
	sw.Varint(int64(st.Resyncs))
	if err := sw.End(); err != nil {
		return err
	}

	sw.Begin(snapSecEngine)
	sw.Uvarint(uint64(len(en.Threads)))
	for _, tc := range en.Threads {
		sw.Bool(tc.Seen)
		sw.Bool(tc.Dead)
		putVC(sw, tc.Clock)
	}
	sw.Uvarint(uint64(len(en.Locks)))
	for _, lc := range en.Locks {
		sw.Varint(int64(lc.Lock))
		putVC(sw, lc.Clock)
	}
	sw.Uvarint(uint64(len(en.Chans)))
	for _, cc := range en.Chans {
		sw.Varint(int64(cc.Chan))
		sw.Uvarint(uint64(len(cc.Queue)))
		for _, c := range cc.Queue {
			putVC(sw, c)
		}
	}
	if err := sw.End(); err != nil {
		return err
	}

	sw.Begin(snapSecDetector)
	sw.Uvarint(uint64(len(det.Objects)))
	for _, oe := range det.Objects {
		sw.Varint(int64(oe.Obj))
		sw.Uvarint(uint64(len(oe.Points)))
		for _, pe := range oe.Points {
			sw.Varint(int64(pe.Pt.Class))
			putValue(sw, pe.Pt.Val)
			sw.Varint(int64(pe.Epoch.T))
			sw.Uvarint(pe.Epoch.C)
			putVC(sw, pe.VC)
			putAction(sw, pe.LastAct)
			sw.Varint(int64(pe.LastThread))
			sw.Varint(int64(pe.LastSeq))
		}
	}
	sw.Uvarint(uint64(len(det.RacyObjs)))
	for _, obj := range det.RacyObjs {
		sw.Varint(int64(obj))
	}
	sw.Varint(int64(det.DeadRacy))
	sw.Varint(int64(det.Stats.Actions))
	sw.Varint(int64(det.Stats.Checks))
	sw.Varint(int64(det.Stats.Races))
	sw.Varint(int64(det.Stats.RacyEvents))
	sw.Varint(int64(det.Stats.ActivePoints))
	sw.Varint(int64(det.Stats.PeakActive))
	sw.Varint(int64(det.Stats.Reclaimed))
	if err := sw.End(); err != nil {
		return err
	}
	return sw.Close()
}

func putVC(sw *wire.StateWriter, c vclock.VC) {
	if c == nil {
		sw.Bool(false)
		return
	}
	sw.Bool(true)
	sw.Uvarint(uint64(len(c)))
	for _, v := range c {
		sw.Uvarint(v)
	}
}

func putValue(sw *wire.StateWriter, v trace.Value) {
	sw.Uvarint(uint64(v.Kind()))
	switch v.Kind() {
	case trace.Int:
		sw.Varint(v.Int())
	case trace.Str:
		sw.String(v.Str())
	case trace.Bool:
		sw.Bool(v.Bool())
	}
}

func putAction(sw *wire.StateWriter, a trace.Action) {
	sw.Varint(int64(a.Obj))
	sw.String(a.Method)
	sw.Uvarint(uint64(len(a.Args)))
	for _, v := range a.Args {
		putValue(sw, v)
	}
	sw.Uvarint(uint64(len(a.Rets)))
	for _, v := range a.Rets {
		putValue(sw, v)
	}
}

// loadSnapshot reads and CRC-validates a snapshot file. Any failure —
// missing file, torn write, bitrot, truncation — is an error the caller
// answers with genesis WAL replay; a snapshot is an optimization, never
// the source of truth.
func loadSnapshot(path string) (*snapMeta, *hb.EngineState, *core.DetectorState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	sr, err := wire.NewStateReader(f)
	if err != nil {
		return nil, nil, nil, err
	}
	var meta *snapMeta
	var en *hb.EngineState
	var det *core.DetectorState
	for {
		kind, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, nil, err
		}
		switch kind {
		case snapSecMeta:
			meta = readMeta(sr)
		case snapSecEngine:
			en = readEngine(sr)
		case snapSecDetector:
			det = readDetector(sr)
		}
		if err := sr.Err(); err != nil {
			return nil, nil, nil, err
		}
	}
	if meta == nil || en == nil || det == nil {
		return nil, nil, nil, fmt.Errorf("durable: snapshot %s is missing sections", path)
	}
	return meta, en, det, nil
}

func readMeta(sr *wire.StateReader) *snapMeta {
	m := &snapMeta{
		SID:         sr.String(),
		Tenant:      sr.String(),
		Spec:        sr.String(),
		Events:      sr.Int(),
		WalOff:      sr.Varint(),
		Resumes:     sr.Int(),
		ReporterSeq: sr.Uvarint(),
	}
	n := sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		m.Registered = append(m.Registered, trace.ObjID(sr.Int()))
	}
	st := &m.DecState
	st.Version = byte(sr.Uvarint())
	st.SID = sr.String()
	st.Tenant = sr.String()
	n = sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		st.Intern = append(st.Intern, sr.String())
	}
	st.Events = sr.Int()
	st.Frames = sr.Int()
	st.ExpectChunk = sr.Uvarint()
	st.SeenChunk = sr.Bool()
	st.DupChunks = sr.Int()
	st.SkippedBytes = sr.Varint()
	st.SkippedFrames = sr.Int()
	st.Resyncs = sr.Int()
	return m
}

func readEngine(sr *wire.StateReader) *hb.EngineState {
	en := &hb.EngineState{}
	n := sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		tc := hb.ThreadClock{Seen: sr.Bool(), Dead: sr.Bool(), Clock: getVC(sr)}
		en.Threads = append(en.Threads, tc)
	}
	n = sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		en.Locks = append(en.Locks, hb.LockClock{Lock: trace.LockID(sr.Int()), Clock: getVC(sr)})
	}
	n = sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		cc := hb.ChanClocks{Chan: trace.ChanID(sr.Int())}
		q := sr.Uvarint()
		for j := uint64(0); j < q && sr.Err() == nil; j++ {
			cc.Queue = append(cc.Queue, getVC(sr))
		}
		en.Chans = append(en.Chans, cc)
	}
	return en
}

func readDetector(sr *wire.StateReader) *core.DetectorState {
	det := &core.DetectorState{}
	n := sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		oe := core.ObjectExport{Obj: trace.ObjID(sr.Int())}
		pn := sr.Uvarint()
		for j := uint64(0); j < pn && sr.Err() == nil; j++ {
			pe := core.PointExport{}
			pe.Pt.Class = sr.Int()
			pe.Pt.Val = getValue(sr)
			pe.Epoch.T = vclock.Tid(sr.Int())
			pe.Epoch.C = sr.Uvarint()
			pe.VC = getVC(sr)
			pe.LastAct = getAction(sr)
			pe.LastThread = vclock.Tid(sr.Int())
			pe.LastSeq = sr.Int()
			oe.Points = append(oe.Points, pe)
		}
		det.Objects = append(det.Objects, oe)
	}
	n = sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		det.RacyObjs = append(det.RacyObjs, trace.ObjID(sr.Int()))
	}
	det.DeadRacy = sr.Int()
	det.Stats.Actions = sr.Int()
	det.Stats.Checks = sr.Int()
	det.Stats.Races = sr.Int()
	det.Stats.RacyEvents = sr.Int()
	det.Stats.ActivePoints = sr.Int()
	det.Stats.PeakActive = sr.Int()
	det.Stats.Reclaimed = sr.Int()
	return det
}

func getVC(sr *wire.StateReader) vclock.VC {
	if !sr.Bool() {
		return nil
	}
	n := sr.Uvarint()
	c := make(vclock.VC, 0, n)
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		c = append(c, sr.Uvarint())
	}
	return c
}

func getValue(sr *wire.StateReader) trace.Value {
	switch trace.Kind(sr.Uvarint()) {
	case trace.Int:
		return trace.IntValue(sr.Varint())
	case trace.Str:
		return trace.StrValue(sr.String())
	case trace.Bool:
		return trace.BoolValue(sr.Bool())
	}
	return trace.NilValue
}

func getAction(sr *wire.StateReader) trace.Action {
	a := trace.Action{Obj: trace.ObjID(sr.Int()), Method: sr.String()}
	n := sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		a.Args = append(a.Args, getValue(sr))
	}
	n = sr.Uvarint()
	for i := uint64(0); i < n && sr.Err() == nil; i++ {
		a.Rets = append(a.Rets, getValue(sr))
	}
	return a
}

// --- Restore ---------------------------------------------------------------

// sessionRestore carries a rehydrated session's checkpointed state into
// newSession and the worker. A genesis restore (no usable snapshot) has
// nil hb/det and zero meta except identity: the WAL replays from byte 0.
type sessionRestore struct {
	meta       snapMeta
	hb         *hb.EngineState
	det        *core.DetectorState
	durableSeq uint64 // report file's high-water JSONL seq for this session
	dur        *durSession
}

// applyRestore imports the checkpointed detection state into the worker's
// fresh engine and detector/pipeline. Runs on the goroutine that owns them
// (session worker or startFleet), before any event is processed. A restore
// failure poisons the session (procErr) rather than silently analyzing
// from the wrong state.
func (s *session) applyRestore() {
	r := s.restore
	if r == nil || r.hb == nil {
		return
	}
	fail := func(err error) {
		s.procErr = fmt.Errorf("restore: %w", err)
		s.degraded = true
	}
	if err := s.en.ImportState(r.hb); err != nil {
		fail(err)
		return
	}
	repFor := func(obj trace.ObjID) (ap.Rep, error) {
		rep, _ := s.d.repFor(obj)
		if s.wrapRep != nil {
			rep = s.wrapRep(rep)
		}
		return rep, nil
	}
	if s.p != nil {
		if err := s.p.ImportState(r.det, repFor); err != nil {
			fail(err)
			return
		}
	} else {
		if err := s.runner.det.ImportState(r.det, repFor); err != nil {
			fail(err)
			return
		}
	}
	for _, obj := range r.meta.Registered {
		s.registered[obj] = true
	}
	s.events = r.meta.Events
}

// rehydrate loads every checkpointed session from the state dir into the
// parked-session table, before the daemon starts serving: expired state is
// garbage-collected, snapshots are validated (CRC) and fall back to
// genesis WAL replay, WAL tails are replayed through the ordinary worker
// path, and torn tail frames are truncated (the client never saw their
// ack, so it replays them on resume).
func (d *daemon) rehydrate() {
	if err := os.MkdirAll(d.cfg.stateDir, 0o755); err != nil {
		d.cfg.logger.Printf("statedir: %v", err)
		return
	}
	entries, err := os.ReadDir(d.cfg.stateDir)
	if err != nil {
		d.cfg.logger.Printf("statedir: %v", err)
		return
	}
	for _, ent := range entries {
		if ent.IsDir() {
			d.rehydrateOne(filepath.Join(d.cfg.stateDir, ent.Name()))
		}
	}
}

// rehydrateOne restores one session directory, or removes it when it is
// expired or unreadable.
func (d *daemon) rehydrateOne(dir string) {
	walPath := filepath.Join(dir, "wal")
	fi, err := os.Stat(walPath)
	if err != nil {
		d.cfg.logger.Printf("statedir: %s has no wal, removing", dir)
		os.RemoveAll(dir)
		return
	}
	ttl := d.cfg.resumeTTL
	if ttl <= 0 {
		ttl = DefaultResumeTTL
	}
	age := time.Since(fi.ModTime())
	if sfi, err := os.Stat(filepath.Join(dir, "snap.ckpt")); err == nil {
		if sage := time.Since(sfi.ModTime()); sage < age {
			age = sage
		}
	}
	if age > ttl {
		// The session's resume TTL elapsed while the daemon was down: the
		// client has long given up. GC, exactly as a live expiry would —
		// and never resurrect its stale JSONL seq window.
		d.cfg.logger.Printf("statedir: %s expired (%v old, ttl %v), removing", dir, age.Round(time.Second), ttl)
		os.RemoveAll(dir)
		return
	}

	restore := &sessionRestore{}
	meta, en, det, serr := loadSnapshot(filepath.Join(dir, "snap.ckpt"))
	if serr == nil && meta.Spec != d.cfg.defaultSpec {
		d.cfg.logger.Printf("statedir: %s was checkpointed under spec %q, daemon runs %q: discarding state",
			dir, meta.Spec, d.cfg.defaultSpec)
		os.RemoveAll(dir)
		return
	}
	if serr == nil && meta.WalOff > fi.Size() {
		// The snapshot references WAL bytes that never reached the disk: a
		// machine crash after the rename but before the WAL writes landed
		// (impossible for a process crash, or with -fsync ckpt/always).
		serr = fmt.Errorf("references wal offset %d beyond wal end %d", meta.WalOff, fi.Size())
	}
	if serr == nil {
		restore.meta = *meta
		restore.hb = en
		restore.det = det
	} else if !os.IsNotExist(serr) {
		// A snapshot exists but does not validate: torn by a machine crash
		// (tmp+rename means a process crash cannot do this). The WAL is the
		// source of truth; replay it from byte zero.
		obsCkptTorn.Inc()
		d.cfg.logger.Printf("statedir: %s snapshot invalid (%v), genesis WAL replay", dir, serr)
	}

	// Identity: from the snapshot when valid, else from the WAL header.
	sid, tenant := restore.meta.SID, restore.meta.Tenant
	if sid == "" {
		f, err := os.Open(walPath)
		if err != nil {
			os.RemoveAll(dir)
			return
		}
		dec, derr := wire.NewDecoder(f)
		if derr == nil {
			sid, derr = dec.ReadHello()
			tenant = dec.Tenant()
		}
		f.Close()
		if derr != nil || sid == "" {
			d.cfg.logger.Printf("statedir: %s wal header unreadable (%v), removing", dir, derr)
			os.RemoveAll(dir)
			return
		}
	}
	if tenant == "" {
		tenant = "default"
	}
	restore.meta.SID, restore.meta.Tenant = sid, tenant
	if d.cfg.reportSeqs != nil {
		restore.durableSeq = d.cfg.reportSeqs[sid]
	}

	release, aerr := d.sched.Admit(tenant)
	if aerr != nil {
		d.cfg.logger.Printf("statedir: %s not admitted (%v), leaving on disk", dir, aerr)
		return
	}

	// lastCkpt is primed before the worker starts: replay republishes
	// boundaries and the worker may legitimately checkpoint mid-replay once
	// the cadence from the snapshot's position says so.
	ds := &durSession{d: d, sid: sid, dir: dir, every: d.ckptEvery(), fsync: d.cfg.fsyncMode,
		lastCkpt: restore.meta.Events}
	restore.dur = ds
	s := d.newSession(sid, tenant, restore)
	s.admit = release
	d.mu.Lock()
	d.sessions[sid] = s
	d.mu.Unlock()

	dec, tail, err := d.replayWAL(s, ds, walPath, restore)
	if err != nil {
		d.cfg.logger.Printf("statedir: %s wal replay: %v", dir, err)
	}
	wal, werr := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	ds.mu.Lock()
	if werr != nil {
		ds.walErr = werr
	} else {
		ds.wal = wal
		if off, err := wal.Seek(0, io.SeekEnd); err == nil {
			ds.walOff = off
		}
	}
	if tail {
		// A replayed tail means the snapshot is stale; refresh at the next
		// boundary. (The worker is already live — lastCkpt/force are shared.)
		ds.force = true
	}
	ds.mu.Unlock()

	s.mu.Lock()
	s.dec = dec // resume connections adopt interning/chunk state from here
	s.resumes = restore.meta.Resumes
	s.mu.Unlock()
	s.park()
	obsCkptRestores.Inc()
	s.logf("rehydrated from %s: %d events checkpointed, tail replay=%v", dir, restore.meta.Events, tail)
}

// replayWAL feeds the WAL's events through the session's ordinary
// queue/worker path: from the snapshot's frame offset with a resumed
// decoder, or from byte zero (genesis). Returns the decoder holding the
// final stream state, and whether any frames beyond the snapshot were
// replayed. A torn or corrupt tail is truncated at the last fully
// consumed frame — those bytes were never acked, so the client replays
// them.
func (d *daemon) replayWAL(s *session, ds *durSession, walPath string, restore *sessionRestore) (*wire.Decoder, bool, error) {
	f, err := os.Open(walPath)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()

	var dec *wire.Decoder
	var startOff int64
	if restore.hb != nil {
		startOff = restore.meta.WalOff
		if _, err := f.Seek(startOff, io.SeekStart); err != nil {
			return nil, false, err
		}
		dec = wire.ResumeDecoder(f, restore.meta.DecState)
	} else {
		dec, err = wire.NewDecoder(f)
		if err != nil {
			return nil, false, err
		}
		if _, err := dec.ReadHello(); err != nil {
			return nil, false, err
		}
		startOff = int64(len(wire.AppendStreamHeader(nil, restore.meta.SID, restore.meta.Tenant)))
	}
	dec.SetObs(s.scope)

	// Rebuild boundaries as frames are re-accepted. tailOff tracks the
	// offset after the last *fully consumed* frame: when the hook fires for
	// frame k+1, frame k's events all reached the queue.
	replayOff := startOff
	tailOff := startOff
	frames := 0
	dec.OnFrameAccepted = func(kind byte, payload []byte) error {
		tailOff = replayOff
		ds.pushBoundary(boundary{off: replayOff, cum: dec.Events(), st: dec.State()})
		replayOff += int64(wire.FrameWireSize(len(payload)))
		frames++
		return nil
	}
	var replayErr error
	for {
		e, err := dec.Next()
		if err != nil {
			if err != io.EOF {
				replayErr = err
			} else {
				tailOff = replayOff // EOF at a frame boundary: everything consumed
			}
			break
		}
		s.queue <- e
		if s.entry != nil {
			s.entry.Wake()
		}
	}
	dec.OnFrameAccepted = nil
	if replayErr != nil {
		// Torn tail: cut the WAL back to the last fully consumed frame.
		obsCkptTorn.Inc()
		if terr := os.Truncate(walPath, tailOff); terr != nil {
			return dec, frames > 0, terr
		}
		d.cfg.logger.Printf("statedir: %s wal torn at %d (%v), truncated to %d",
			ds.dir, replayOff, replayErr, tailOff)
		// Drop the boundary of the frame that failed to replay, if any.
		ds.mu.Lock()
		for len(ds.bounds) > 0 && ds.bounds[len(ds.bounds)-1].off >= tailOff {
			ds.bounds = ds.bounds[:len(ds.bounds)-1]
		}
		ds.mu.Unlock()
	}
	return dec, frames > 0, nil
}

// scanReport reads an existing JSONL report and returns each session's
// durable high-water seq, truncating a torn last line (the report is
// written unbuffered under a lock, so only the final line can be partial).
// Degraded-note records carry a "note" field and do not advance seqs.
func scanReport(path string) (map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]uint64{}, nil
		}
		return nil, err
	}
	if n := bytes.LastIndexByte(data, '\n'); n < len(data)-1 {
		keep := int64(0)
		if n >= 0 {
			keep = int64(n + 1)
		}
		if err := os.Truncate(path, keep); err != nil {
			return nil, err
		}
		data = data[:keep]
	}
	seqs := map[string]uint64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Session string `json:"session"`
			Seq     uint64 `json:"seq"`
			Note    string `json:"note"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.Note != "" || rec.Session == "" {
			continue
		}
		if rec.Seq > seqs[rec.Session] {
			seqs[rec.Session] = rec.Seq
		}
	}
	return seqs, nil
}
