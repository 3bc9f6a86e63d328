package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestTimingWrapperLeavesOutputUnchanged runs a small fleet-churn with and
// without the timing wrapper and requires the same digest and byte-identical
// checkpoint files. Scenario and capacity tenants need the wrapper to forward
// system.Adjustable, and the checkpoints' backend state needs it to forward
// system.Snapshottable.
func TestTimingWrapperLeavesOutputUnchanged(t *testing.T) {
	contexts := permutedContexts(7, 6)
	run := func(tr *tracer) (string, map[string][]byte) {
		t.Helper()
		specs := churnInitial(contexts)
		h, err := newFleet(t.TempDir(), true, tr, specs)
		if err != nil {
			t.Fatal(err)
		}
		defer h.close()
		next := len(specs)
		active := make([]string, 0, len(specs))
		for _, s := range specs {
			active = append(active, s.Name)
		}
		churn := func(int64) error {
			for _, name := range active[:churnPerRound] {
				if err := h.f.Drain(name); err != nil {
					return err
				}
			}
			active = active[churnPerRound:]
			for i := 0; i < churnPerRound; i++ {
				spec := churnSpec(next, contexts)
				next++
				if _, err := h.f.Admit(spec); err != nil {
					return err
				}
				active = append(active, spec.Name)
			}
			return nil
		}
		if _, err := h.runRounds(25, roundHooks{after: churn}); err != nil {
			t.Fatal(err)
		}
		if failed := h.failedTenants(); len(failed) > 0 {
			t.Fatalf("failed tenants: %v", failed)
		}
		digest, err := h.digest()
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		root := filepath.Join(h.dir, "checkpoints")
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			files[rel] = b
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return digest, files
	}

	plainDigest, plainFiles := run(nil)
	tr := newTracer()
	timedDigest, timedFiles := run(tr)
	if len(tr.named("system.measure")) == 0 {
		t.Fatal("the wrapper recorded no spans")
	}
	if plainDigest != timedDigest {
		t.Fatalf("digest with wrapper %s, without %s", timedDigest, plainDigest)
	}
	if len(plainFiles) == 0 || len(plainFiles) != len(timedFiles) {
		t.Fatalf("%d checkpoint files without the wrapper, %d with", len(plainFiles), len(timedFiles))
	}
	for name, b := range plainFiles {
		if !bytes.Equal(b, timedFiles[name]) {
			t.Fatalf("checkpoint %s differs with the wrapper", name)
		}
	}
}
