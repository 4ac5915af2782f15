package transport

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"prochlo/internal/core"
)

// walEnv builds a distinguishable envelope with a fixed sequence stamp.
func walEnv(seq int, value string) core.Envelope {
	return core.Envelope{Blob: []byte(value), SourceIP: "10.0.0.1", SeqNo: seq}
}

// walAppend logs envs (with their SeqNo stamps) as item records.
func walAppend(t *testing.T, w *wal, envs []core.Envelope) {
	t.Helper()
	err := w.appendItems(len(envs),
		func(i int) int64 { return int64(envs[i].SeqNo) },
		func(i int, dst []byte) []byte { return envs[i].AppendWire(dst) })
	if err != nil {
		t.Fatal(err)
	}
}

// TestWALRecoverRoundTrip logs items, a cut, a forward ingest, and a
// resolution, then recovers the directory and checks every piece of state
// comes back: the stream id, the resolved epoch's items gone, the unresolved
// epoch regrouped under its id, the rest pending in seq order, and the
// forward dedup mark restored.
func TestWALRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, 42, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1 (seqs 1-2): cut and resolved — must not come back.
	walAppend(t, w, []core.Envelope{walEnv(1, "resolved-a"), walEnv(2, "resolved-b")})
	if err := w.logCut(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	w.resolve(1, true)

	// Epoch 2 (seqs 3-5, logged out of order): cut, never resolved.
	walAppend(t, w, []core.Envelope{walEnv(3, "open-a"), walEnv(5, "open-c")})
	walAppend(t, w, []core.Envelope{walEnv(4, "open-b")})
	if err := w.logCut(2, 3, 5); err != nil {
		t.Fatal(err)
	}

	// Pending (seqs 6-7): accepted, never cut. Seq 7 arrives via a forward
	// ingest carrying a dedup mark.
	walAppend(t, w, []core.Envelope{walEnv(6, "pend-a")})
	err = w.appendForward(99, 7, 1,
		func(int) int64 { return 7 },
		func(_ int, dst []byte) []byte { e := walEnv(7, "pend-b"); return e.AppendWire(dst) })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}

	rec, err := recoverWAL[core.Envelope](dir, envelopeOps.dec)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("recoverWAL returned nil for a populated directory")
	}
	if rec.stream != 42 {
		t.Errorf("recovered stream = %d, want 42", rec.stream)
	}
	if rec.seqMax != 7 || rec.epochMax != 2 {
		t.Errorf("seqMax=%d epochMax=%d, want 7 and 2", rec.seqMax, rec.epochMax)
	}
	if len(rec.epochs) != 1 || rec.epochs[0].id != 2 {
		t.Fatalf("recovered epochs = %+v, want one with id 2", rec.epochs)
	}
	var got []string
	for _, e := range rec.epochs[0].batch {
		got = append(got, string(e.Blob))
	}
	if fmt.Sprint(got) != "[open-a open-b open-c]" {
		t.Errorf("epoch 2 items = %v, want seq order open-a open-b open-c", got)
	}
	got = got[:0]
	for _, e := range rec.pending {
		got = append(got, fmt.Sprintf("%s/%d", e.Blob, e.SeqNo))
	}
	if fmt.Sprint(got) != "[pend-a/6 pend-b/7]" {
		t.Errorf("pending = %v, want pend-a/6 pend-b/7", got)
	}
	if len(rec.marks) != 1 || rec.marks[0] != [2]int64{99, 7} {
		t.Errorf("marks = %v, want [[99 7]]", rec.marks)
	}
	if e := rec.pending[0]; e.SourceIP != "10.0.0.1" {
		t.Errorf("metadata lost: %+v", e)
	}
}

// TestWALTornTailIgnored crash-truncates a segment mid-record and checks
// recovery keeps every record before the tear and drops the torn one.
func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	walAppend(t, w, []core.Envelope{walEnv(1, "whole"), walEnv(2, "torn-away")})
	shardPath := w.items.path
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop a few bytes off the file.
	fi, err := os.Stat(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(shardPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rec, err := recoverWAL[core.Envelope](dir, envelopeOps.dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.pending) != 1 || string(rec.pending[0].Blob) != "whole" {
		t.Fatalf("pending after torn tail = %+v, want just the whole record", rec.pending)
	}
}

// TestWALResolveReclaimsSegments rotates segments with a tiny size limit and
// checks resolved epochs' sealed segments are deleted while unresolved ones
// survive.
func TestWALResolveReclaimsSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 64, 7, 0) // rotate after ~one record
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 4; seq++ {
		walAppend(t, w, []core.Envelope{walEnv(seq, "segment-filler-payload-to-force-rotation")})
	}
	if err := w.logCut(1, 1, 4); err != nil {
		t.Fatal(err)
	}
	sealedBefore, _ := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	if len(sealedBefore) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", sealedBefore)
	}
	w.resolve(1, true)
	left, _ := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	// Only the active (empty) segment may survive.
	if len(left) != 1 {
		t.Errorf("segments after resolve = %v, want only the active one", left)
	}
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}
}

// TestWALCleanCloseWipes: a wiping close leaves nothing to recover.
func TestWALCleanCloseWipes(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	walAppend(t, w, []core.Envelope{walEnv(1, "gone")})
	if err := w.logCut(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	w.resolve(1, true)
	if err := w.close(true); err != nil {
		t.Fatal(err)
	}
	rec, err := recoverWAL[core.Envelope](dir, envelopeOps.dec)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("recovery after wiping close = %+v, want nil", rec)
	}
}

// TestWALMigrationIdempotent: recovering, rewriting via migrateWAL, and
// crashing before/after the old files are deleted must recover to the same
// state — the seq/id dedup absorbs the overlap.
func TestWALMigrationIdempotent(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	walAppend(t, w, []core.Envelope{walEnv(1, "epoch-item"), walEnv(2, "pending-item")})
	if err := w.logCut(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.close(false); err != nil {
		t.Fatal(err)
	}

	rec, err := recoverWAL[core.Envelope](dir, envelopeOps.dec)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := openWAL(dir, 0, rec.stream, walStartGen(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := migrateWAL(w2, rec, envelopeOps.seqOf, envelopeOps.enc); err != nil {
		t.Fatal(err)
	}
	w2.closeFiles() // crash right after migration

	rec2, err := recoverWAL[core.Envelope](dir, envelopeOps.dec)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.stream != 11 || rec2.seqMax != 2 || rec2.epochMax != 1 {
		t.Errorf("post-migration recovery stream=%d seqMax=%d epochMax=%d, want 11/2/1",
			rec2.stream, rec2.seqMax, rec2.epochMax)
	}
	if len(rec2.epochs) != 1 || len(rec2.epochs[0].batch) != 1 ||
		string(rec2.epochs[0].batch[0].Blob) != "epoch-item" {
		t.Errorf("post-migration epochs = %+v", rec2.epochs)
	}
	if len(rec2.pending) != 1 || string(rec2.pending[0].Blob) != "pending-item" {
		t.Errorf("post-migration pending = %+v", rec2.pending)
	}
}
