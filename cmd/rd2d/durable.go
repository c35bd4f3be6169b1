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
// the ordinary decode → queue → session runner path, with the JSONL
// reporter's suppression window (core.SessionReporter.Restore) making
// regenerated race records silent up to the report file's durable
// high-water mark.
// Verdicts after a crash+restart are byte-identical to the uninterrupted
// run because replay *is* the run: same bytes, same decoder state, same
// engine clocks, same detector state.
//
// Checkpoints happen only in the session runner's per-event step, at
// frame boundaries the decoder hook published, so the snapshot's three
// states agree on a single stream position. A snapshot only shortens the
// next restart's WAL replay, so the runner takes one only when the WAL
// suffix past the last snapshot reaches the replay budget (-ckpt-every);
// at the boundaries in between it at most fsyncs the WAL. fsync policy is
// -fsync off|ckpt|always: the page cache survives a process SIGKILL, so
// even "off" is crash-safe against process death; "ckpt"/"always" extend
// the guarantee to machine crashes.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
	obsCkptWalSyncs   = obs.GetCounter("rd2d.ckpt.wal_syncs")
	obsCkptRestores   = obs.GetCounter("rd2d.ckpt.restores")
	obsCkptTorn       = obs.GetCounter("rd2d.ckpt.torn_recoveries")
)

// fsync policy for the state dir.
const (
	fsyncOff    = iota // never fsync: crash-safe against process death only
	fsyncCkpt          // fsync the WAL every walSyncEvery events and with each snapshot
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

// DefaultCkptEvery is the default replay budget, in events: a durable
// session is snapshotted once the WAL suffix a restart would replay reaches
// it. WAL replay runs at about a million events a second on a 2-vCPU host
// (EXPERIMENTS.md E14), so that is about a second of restart time.
const DefaultCkptEvery = 1 << 20

// walSyncEvery is the WAL fsync cadence under -fsync ckpt, in events: the
// runner fsyncs the WAL at the first frame boundary this far past the
// previous fsync, snapshot or not.
const walSyncEvery = 4096

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
// of frame boundaries the runner may checkpoint at. The hook side (WAL
// append, boundary publish) runs on the connection read loop; the
// checkpoint side (boundary take, WAL fsync, snapshot) runs in the session
// runner; mu covers the shared fields.
type durSession struct {
	d     *daemon
	sid   string
	dir   string
	every int // replay budget in events: snapshot once the WAL suffix reaches it
	fsync int

	mu     sync.Mutex
	wal    *os.File
	walOff int64
	bounds []boundary
	walErr error
	buf    []byte // frame re-encode scratch (hook side only)

	// Runner-side only. lastCkpt and lastSync are primed before the runner
	// starts: from the snapshot a rehydrated session restores, else 0.
	lastCkpt int   // events at the last snapshot
	lastSync int   // events at the last WAL fsync
	ckptErr  error // first snapshot or fsync failure; disables both
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
// sessions never reach here, claim resumes them).
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
		every:  d.cfg.ckptEvery,
		fsync:  d.cfg.fsyncMode,
		wal:    wal,
		walOff: int64(len(hdr)),
	}, nil
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
			obsCkptWalSyncs.Inc()
		}
		ds.bounds = append(ds.bounds, b)
		obsCkptWalAppends.Inc()
		return nil
	}
}

// takeBoundary resolves the runner's position against the published
// boundaries: boundaries strictly behind events are dropped (missed
// checkpoint opportunities — never incorrect), and the latest boundary
// exactly at events, if any, is popped and returned. Duplicate-chunk frames
// publish zero-event boundaries at the same cum; the latest wins so a
// resume replays the least.
func (ds *durSession) takeBoundary(events int) (boundary, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	i := 0
	for i < len(ds.bounds) && ds.bounds[i].cum < events {
		i++
	}
	ds.bounds = ds.bounds[i:]
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

// syncWAL fsyncs the WAL up to everything appended so far. The file is
// read under mu but synced outside it, so the read loop's appends never
// wait on the disk. Mid-rehydration there is no open WAL: the replayed
// frames are already in it, and the next fsync covers them.
func (ds *durSession) syncWAL() error {
	ds.mu.Lock()
	wal := ds.wal
	ds.mu.Unlock()
	if wal == nil {
		return nil
	}
	if err := wal.Sync(); err != nil {
		return err
	}
	obsCkptWalSyncs.Inc()
	return nil
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

// maybeCheckpoint is the checkpoint cut-point. Called by the runner's step
// before processing each event, so when a published boundary lands exactly
// here the engine has stamped exactly the events it covers. At such a
// boundary it makes one of two decisions: snapshot, once the WAL suffix
// past the last snapshot reaches the replay budget; otherwise, under
// -fsync ckpt, fsync the WAL once walSyncEvery events have gone by since
// the last fsync. A degraded or failed session is never checkpointed —
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
	var err error
	switch {
	case b.cum-ds.lastCkpt >= ds.every:
		if err = s.checkpoint(b); err == nil {
			ds.lastCkpt, ds.lastSync = b.cum, b.cum
		}
	case ds.fsync == fsyncCkpt && b.cum-ds.lastSync >= walSyncEvery:
		if err = ds.syncWAL(); err == nil {
			ds.lastSync = b.cum
		}
	}
	if err != nil {
		ds.ckptErr = err
		s.logf("checkpoint failed (continuing without snapshots or WAL fsyncs, WAL still covers the session): %v", err)
	}
}

// checkpoint writes one snapshot at boundary b: quiesce and export the
// detection state, serialize, and atomically replace snap.ckpt.
func (s *session) checkpoint(b boundary) error {
	ds := s.dur
	start := time.Now()
	det, err := s.det.Export()
	if err != nil {
		return err
	}
	en := s.en.ExportState()
	// Reporter seq after the export: every race from events <= b.cum has
	// been written (pipeline OnRace runs on shard goroutines; its export
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
		if err := ds.syncWAL(); err != nil {
			return err
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
// newSession. A genesis restore (no usable snapshot) has nil hb/det and
// zero meta except identity: the WAL replays from byte 0.
type sessionRestore struct {
	meta       snapMeta
	hb         *hb.EngineState
	det        *core.DetectorState
	durableSeq uint64 // report file's high-water JSONL seq for this session
	dur        *durSession
}

// applyRestore imports the checkpointed detection state into the session's
// fresh engine and detector. newSession runs it before starting the
// runner's driver, so before any event is processed. A restore failure
// poisons the session (procErr) rather than silently analyzing from the
// wrong state.
func (s *session) applyRestore(r *sessionRestore) {
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
	if err := s.det.ImportState(r.det, repFor); err != nil {
		fail(err)
		return
	}
	for _, obj := range r.meta.Registered {
		s.registered[obj] = true
	}
	s.events = r.meta.Events
}

// rehydrate loads every checkpointed session from the state dir into the
// parked-session table, before the daemon starts serving: expired state is
// garbage-collected, snapshots are validated (CRC) and fall back to
// genesis WAL replay, WAL tails are replayed through the ordinary runner
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

	// lastCkpt is primed before the runner starts: replay republishes
	// boundaries and the runner may legitimately checkpoint mid-replay once
	// the budget from the snapshot's position says so. That also bounds the
	// next restart's replay, with no snapshot forced after this one.
	ds := &durSession{d: d, sid: sid, dir: dir, every: d.cfg.ckptEvery, fsync: d.cfg.fsyncMode,
		lastCkpt: restore.meta.Events, lastSync: restore.meta.Events}
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
	ds.mu.Unlock()

	if dec != nil {
		s.publishDecoder(dec)
	}
	s.mu.Lock()
	s.dec = dec // resume connections adopt interning/chunk state from here
	s.resumes = restore.meta.Resumes
	s.transition(stateParked, causeRehydrate)
	s.mu.Unlock()
	obsCkptRestores.Inc()
	s.logf("rehydrated from %s: %d events checkpointed, tail replay=%v", dir, restore.meta.Events, tail)
}

// replayWAL feeds the WAL's events through the session's ordinary
// queue/runner path: from the snapshot's frame offset with a resumed
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

// scanReport streams an existing JSONL report and returns each session's
// durable high-water seq, truncating a torn last line (the report is
// written unbuffered under a lock, so only the final line can be partial).
// It reads only each line's leading {"session":"…","seq":N — the field
// order RaceRecord declares — so restart cost is one pass over the bytes,
// not a JSON decode per record. Degraded notes are maps, encoded with
// sorted keys ("events" first), so they never match and advance no seq.
func scanReport(path string) (map[string]uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]uint64{}, nil
		}
		return nil, err
	}
	defer f.Close()
	seqs := map[string]uint64{}
	br := bufio.NewReaderSize(f, 64<<10)
	var off, start int64 // bytes read; offset of the current line
	var sid string
	var seq uint64
	var ok bool
	for {
		// A line's first fragment is the whole line or a full buffer, so
		// it holds the prefix.
		frag, err := br.ReadSlice('\n')
		if off == start && len(frag) > 0 {
			sid, seq, ok = recordPrefix(frag)
		}
		off += int64(len(frag))
		switch err {
		case nil: // the line is complete
			if ok && seq > seqs[sid] {
				seqs[sid] = seq
			}
			start = off
		case bufio.ErrBufferFull: // a long line: read on to its newline
		case io.EOF:
			if off > start { // torn last line
				if err := f.Truncate(start); err != nil {
					return nil, err
				}
			}
			return seqs, nil
		default:
			return nil, err
		}
	}
}

// Prefixes of a race record line, in RaceRecord's field order.
var (
	sessionKey = []byte(`{"session":`)
	seqKey     = []byte(`,"seq":`)
)

// recordPrefix reads the session id and seq from the start of a race
// record line, {"session":"…","seq":N. ok is false for any other line.
func recordPrefix(line []byte) (sid string, seq uint64, ok bool) {
	rest, found := bytes.CutPrefix(line, sessionKey)
	if !found || len(rest) == 0 || rest[0] != '"' {
		return "", 0, false
	}
	end, escaped := 1, false // index of the closing quote
	for ; end < len(rest) && rest[end] != '"'; end++ {
		if rest[end] == '\\' {
			end++
			escaped = true
		}
	}
	if end >= len(rest) {
		return "", 0, false
	}
	if escaped {
		if json.Unmarshal(rest[:end+1], &sid) != nil {
			return "", 0, false
		}
	} else {
		sid = string(rest[1:end])
	}
	if rest, found = bytes.CutPrefix(rest[end+1:], seqKey); !found {
		return "", 0, false
	}
	n := 0
	for n < len(rest) && '0' <= rest[n] && rest[n] <= '9' {
		n++
	}
	seq, err := strconv.ParseUint(string(rest[:n]), 10, 64)
	return sid, seq, err == nil && sid != ""
}
