package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const racyTrace = `
t0 fork t1
t0 fork t2
t2 act o0.put("a.com", 1)/nil
t1 act o0.put("a.com", 2)/1
t0 join t1
t0 join t2
t0 act o0.size()/1
`

const cleanTrace = `
t0 fork t1
t1 act o0.put("a.com", 1)/nil
t0 join t1
t0 act o0.size()/1
`

func TestRacyTraceExitsOne(t *testing.T) {
	path := writeFile(t, "racy.trace", racyTrace)
	for _, extra := range [][]string{nil, {"-engine", "enumerating"}, {"-summary"}, {"-q"}} {
		args := append([]string{"-trace", path}, extra...)
		if code := run(args); code != 1 {
			t.Errorf("args %v: exit = %d, want 1", args, code)
		}
	}
}

func TestCleanTraceExitsZero(t *testing.T) {
	path := writeFile(t, "clean.trace", cleanTrace)
	if code := run([]string{"-trace", path}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
}

func TestSpecFromFile(t *testing.T) {
	tracePath := writeFile(t, "t.trace", cleanTrace)
	specPath := writeFile(t, "d.spec", `
object dict
method put(k, v) / (p)
method size() / (r)
commute put(k1, v1)/(p1), put(k2, v2)/(p2) when k1 != k2
commute put(k1, v1)/(p1), size()/(r) when false
commute size()/(r1), size()/(r2) when true
`)
	if code := run([]string{"-trace", tracePath, "-spec", specPath}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
}

func TestBindOverride(t *testing.T) {
	path := writeFile(t, "t.trace", cleanTrace)
	if code := run([]string{"-trace", path, "-bind", "0=dict"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
}

func TestUsageErrors(t *testing.T) {
	path := writeFile(t, "t.trace", cleanTrace)
	cases := [][]string{
		{},                                     // missing -trace
		{"-trace", "/nonexistent/file"},        // unreadable trace
		{"-trace", path, "-engine", "warp"},    // bad engine
		{"-trace", path, "-spec", "nope"},      // unknown spec
		{"-trace", path, "-bind", "zero=dict"}, // bad object id
		{"-trace", path, "-bind", "0"},         // malformed bind
		{"-trace", path, "-bind", "0=nope"},    // unknown bound spec
		{"-bogus-flag"},                        // flag error
		{"-trace", path, "-stats-json"},        // removed: /metrics is the JSON surface
	}
	for _, args := range cases {
		if code := run(args); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}

func TestBadTraceContent(t *testing.T) {
	path := writeFile(t, "bad.trace", "t0 frobnicate o0\n")
	if code := run([]string{"-trace", path}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestTraceWithUnknownMethod(t *testing.T) {
	path := writeFile(t, "bad.trace", "t0 act o0.frob(1)/2\n")
	if code := run([]string{"-trace", path}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestDeterminismFlag(t *testing.T) {
	racy := writeFile(t, "racy.trace", racyTrace)
	if code := run([]string{"-trace", racy, "-determinism", "30", "-q"}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	clean := writeFile(t, "clean.trace", cleanTrace)
	if code := run([]string{"-trace", clean, "-determinism", "30"}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
}

func TestValidateFlagCatchesMalformedTrace(t *testing.T) {
	bad := writeFile(t, "bad.trace", "t0 fork t1\nt0 fork t1\n")
	if code := run([]string{"-trace", bad}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	// Disabling validation defers the failure to the happens-before engine.
	if code := run([]string{"-trace", bad, "-validate=false"}); code != 2 {
		t.Fatalf("exit = %d, want 2 (hb engine rejects double fork)", code)
	}
}

func TestJSONOutput(t *testing.T) {
	racy := writeFile(t, "racy.trace", racyTrace)
	if code := run([]string{"-trace", racy, "-json"}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

func TestShardsFlag(t *testing.T) {
	racy := writeFile(t, "racy.trace", racyTrace)
	clean := writeFile(t, "clean.trace", cleanTrace)
	for _, shards := range []string{"1", "4"} {
		if code := run([]string{"-trace", racy, "-shards", shards}); code != 1 {
			t.Errorf("-shards %s racy: exit = %d, want 1", shards, code)
		}
		if code := run([]string{"-trace", clean, "-shards", shards}); code != 0 {
			t.Errorf("-shards %s clean: exit = %d, want 0", shards, code)
		}
	}
	// The pipeline path composes with the other report modes and spec files.
	if code := run([]string{"-trace", racy, "-shards", "4", "-json"}); code != 1 {
		t.Errorf("-shards 4 -json: want exit 1")
	}
	if code := run([]string{"-trace", racy, "-shards", "4", "-summary"}); code != 1 {
		t.Errorf("-shards 4 -summary: want exit 1")
	}
	if code := run([]string{"-trace", racy, "-shards", "4", "-engine", "enumerating"}); code != 1 {
		t.Errorf("-shards 4 -engine enumerating: want exit 1")
	}
	// Errors (unregistered kinds, malformed events) still surface as exit 2.
	bad := writeFile(t, "bad.trace", "t0 act o0.frob(1)/2\n")
	if code := run([]string{"-trace", bad, "-shards", "4"}); code != 2 {
		t.Errorf("-shards 4 bad trace: exit = %d, want 2", code)
	}
}
