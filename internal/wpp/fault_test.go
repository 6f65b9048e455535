package wpp

import (
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/obsv"
	"repro/internal/trace"
)

// openTruncated copies a golden artifact to a temporary file, opens it
// as a mapped view and then truncates the file to zero bytes, so every
// page of the mapping is gone. It skips where the platform reads the
// file into the heap instead of mapping it.
func openTruncated(t *testing.T, name string) *ArtifactView {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	met := NewViewMetrics(obsv.NewRegistry())
	v, err := OpenViewFile(path, &ViewOptions{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	if met.BytesMapped.Value() == 0 {
		t.Skip("artifact was read into the heap, not mapped")
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	return v
}

// wantFault checks that err is a *ViewError caused by a memory fault.
func wantFault(t *testing.T, what string, err error) {
	t.Helper()
	var ve *ViewError
	if !errors.As(err, &ve) || !errors.Is(err, ErrMappedFault) {
		t.Fatalf("%s on a truncated mapping: got %v, want a *ViewError wrapping ErrMappedFault", what, err)
	}
}

// TestTruncatedMappedFileIsViewError truncates a mapped artifact after
// open: chunk materialization, the framing scan behind it and Walk
// must report a typed error instead of the process dying of SIGBUS,
// and the goroutine's fault setting must be restored afterwards.
func TestTruncatedMappedFileIsViewError(t *testing.T) {
	v := openTruncated(t, "expr.wpc1")
	_, err := v.Chunk(0)
	wantFault(t, "Chunk", err)
	// The framing scan failed once; every later access repeats its error.
	_, err = v.Chunk(v.NumChunks() - 1)
	wantFault(t, "Chunk after a failed scan", err)

	w := openTruncated(t, "expr.wpp2")
	err = w.Walk(func(trace.Event) bool { return true })
	wantFault(t, "Walk", err)
	if _, err := w.Summarize(2); err == nil {
		t.Fatal("Summarize on a truncated mapping succeeded")
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("a guarded entry point left the goroutine panicking on faults")
	}
}
