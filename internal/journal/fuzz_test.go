package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalParse pins the reader contract over arbitrary bytes: Read
// never panics and fails only with a typed error, and Recover truncates
// only a torn tail, to a record boundary that Read then re-reads without
// error.
func FuzzJournalParse(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.rpj")
	j, err := Create(path, []byte(`{"seed":7}`))
	if err != nil {
		f.Fatal(err)
	}
	for tick := uint64(1); tick <= 3; tick++ {
		if err := j.Append(Record{Tick: tick, StreamKey: "apply-x", Events: []string{"traffic:1.01"}}); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.AppendCheckpoint(Checkpoint{Tick: 3, File: "checkpoint-000003.flat", Digest: "abc"}); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)-3]) // torn tail
	flipped := append([]byte(nil), real...)
	flipped[len(real)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte(Magic))
	f.Add([]byte{})

	typed := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: untyped error %v", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.rpj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		read, readErr := Read(path)
		if readErr != nil {
			typed(t, "Read", readErr)
		}
		recovered, j, err := Recover(path)
		if err != nil {
			typed(t, "Recover", err)
			if kept, _ := os.ReadFile(path); !bytes.Equal(kept, data) {
				t.Fatalf("failed Recover changed the file from %d to %d bytes", len(data), len(kept))
			}
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("Recover rewrote the file instead of truncating it")
		}
		if truncated := len(kept) < len(data); truncated != recovered.Truncated || truncated != errors.Is(readErr, ErrTruncated) {
			t.Fatalf("kept %d of %d bytes, Truncated %v, Read error %v", len(kept), len(data), recovered.Truncated, readErr)
		}
		again, err := Read(path)
		if err != nil {
			t.Fatalf("Read after Recover: %v", err)
		}
		recovered.Truncated = false
		if !reflect.DeepEqual(again, recovered) {
			t.Fatalf("Read after Recover gives %+v, Recover gave %+v", again, recovered)
		}
		if readErr == nil && !reflect.DeepEqual(read, again) {
			t.Fatalf("Recover changed an intact journal's contents")
		}
	})
}
