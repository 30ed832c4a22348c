package shm

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"plibmc/internal/faultpoint"
)

func TestFlushLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.heap")
	h := New(2 * PageSize)
	h.Store64(0, 0x1122334455667788)
	h.WriteBytes(4096, []byte("persisted value"))
	if err := h.Flush(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != h.Size() {
		t.Fatalf("size = %d, want %d", back.Size(), h.Size())
	}
	if back.Load64(0) != 0x1122334455667788 {
		t.Fatal("word 0 not persisted")
	}
	if got := string(back.Bytes(4096, 15)); got != "persisted value" {
		t.Fatalf("bytes = %q", got)
	}
}

func TestFlushReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.heap")
	h := New(PageSize)
	h.Store64(0, 1)
	if err := h.Flush(path); err != nil {
		t.Fatal(err)
	}
	h.Store64(0, 2)
	if err := h.Flush(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Load64(0) != 2 {
		t.Fatal("second flush not visible")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temporary file left behind")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk")
	if err := os.WriteFile(path, []byte("not a heap image at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load of garbage should fail")
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Load of missing file should fail")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.heap")
	h := New(PageSize)
	if err := h.Flush(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load of truncated image should fail")
	}
}

func TestLoadTruncatedReturnsTypedError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.heap")
	h := New(4 * PageSize)
	h.Store64(0, 7)
	if err := h.WriteImage(path, 3); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-body: the header parses but the file is shorter than the
	// geometry it declares. Must fail with ErrImageTruncated, not panic or
	// construct a short heap.
	if err := os.WriteFile(path, full[:len(full)-PageSize], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if !errors.Is(err, ErrImageTruncated) {
		t.Fatalf("err = %v, want ErrImageTruncated", err)
	}
	// Header info must still be readable so candidate ranking can report it.
	info, err := ReadImageInfo(path)
	if err != nil || info.Generation != 3 {
		t.Fatalf("ReadImageInfo = %+v, %v", info, err)
	}
}

func TestLoadRejectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.heap")
	h := New(4 * PageSize)
	for off := uint64(0); off < h.Size(); off += WordSize {
		h.Store64(off, off^0xdeadbeef)
	}
	if err := h.WriteImage(path, 1); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the body.
	full[imageHeaderSize+64+PageSize] ^= 0x10
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if !errors.Is(err, ErrImageChecksum) {
		t.Fatalf("err = %v, want ErrImageChecksum", err)
	}
}

func TestLoadRejectsHeaderCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hdr.heap")
	h := New(PageSize)
	if err := h.WriteImage(path, 9); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[16] ^= 0x01 // generation field: header CRC must catch it
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrImageChecksum) {
		t.Fatalf("err = %v, want ErrImageChecksum", err)
	}
	if _, err := ReadImageInfo(path); !errors.Is(err, ErrImageChecksum) {
		t.Fatalf("ReadImageInfo err = %v, want ErrImageChecksum", err)
	}
}

func TestVerifyImageLocalizesCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "verify.heap")
	h := New(3 * ImageRegionSize)
	for off := uint64(0); off < h.Size(); off += WordSize {
		h.Store64(off, off*3+1)
	}
	if err := h.WriteImage(path, 4); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Info.Generation != 4 {
		t.Fatalf("clean image: report %+v", rep)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bodyOff := uint64(imageHeaderSize) + rep.Info.Regions*8
	full[bodyOff+ImageRegionSize+17] ^= 0x80  // region 1
	full[bodyOff+2*ImageRegionSize+5] ^= 0x01 // region 2
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.ImageCRCOK || !rep.TableOK {
		t.Fatalf("corrupt image: report %+v", rep)
	}
	if len(rep.BadRegions) != 2 || rep.BadRegions[0].Region != 1 || rep.BadRegions[1].Region != 2 {
		t.Fatalf("bad regions = %+v", rep.BadRegions)
	}
}

// A damaged region-table entry over an intact body is charged to that
// entry's region alone: the running sums chain, but the next region must
// not be reported with it — whichever half of the u64 entry was hit.
func TestVerifyImageDamagedTableEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.heap")
	h := New(3 * ImageRegionSize)
	for off := uint64(0); off < h.Size(); off += WordSize {
		h.Store64(off, off*5+3)
	}
	if err := h.WriteImage(path, 1); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for reg := 0; reg < 3; reg++ {
		for _, byteInEntry := range []int{0, 3, 4, 7} {
			full := append([]byte(nil), clean...)
			full[imageHeaderSize+reg*8+byteInEntry] ^= 0x10
			if err := os.WriteFile(path, full, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := VerifyImage(path)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || rep.TableOK || rep.ImageCRCOK {
				t.Fatalf("entry %d byte %d: report %+v", reg, byteInEntry, rep)
			}
			if len(rep.BadRegions) != 1 || rep.BadRegions[0].Region != uint64(reg) {
				t.Fatalf("entry %d byte %d: bad regions = %+v, want only region %d",
					reg, byteInEntry, rep.BadRegions, reg)
			}
		}
	}
}

func TestImageCandidatesOrdering(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "store.heap")
	h := New(PageSize)
	h.Store64(0, 11)
	if err := h.WriteImage(CheckpointSlot(base, 5), 5); err != nil {
		t.Fatal(err)
	}
	h.Store64(0, 12)
	if err := h.WriteImage(CheckpointSlot(base, 6), 6); err != nil {
		t.Fatal(err)
	}
	if CheckpointSlot(base, 5) == CheckpointSlot(base, 6) {
		t.Fatal("adjacent generations must use different slots")
	}
	cands := ImageCandidates(base)
	if len(cands) != 2 {
		t.Fatalf("candidates = %+v", cands)
	}
	if cands[0].Generation != 6 || cands[1].Generation != 5 {
		t.Fatalf("order = %+v", cands)
	}
	// Corrupt the newest slot's header: it must sort behind the readable
	// older generation, and the older generation must still load.
	full, err := os.ReadFile(cands[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	full[0] ^= 0xff
	if err := os.WriteFile(cands[0].Path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	cands = ImageCandidates(base)
	if len(cands) != 2 || cands[0].Generation != 5 || cands[1].Err == nil {
		t.Fatalf("after corruption: %+v", cands)
	}
	back, info, err := LoadImage(cands[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 5 || back.Load64(0) != 11 {
		t.Fatalf("fallback image: gen %d, word %d", info.Generation, back.Load64(0))
	}
}

// An image of the previous format (the version just retired) must be
// refused by version, never loaded and misread; and a slot holding one
// must rank behind a slot that loads, however new its generation claims
// to be.
func TestOldImageVersionRefused(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store.heap")
	h := New(PageSize)
	h.Store64(0, 11)
	if err := h.WriteImage(CheckpointSlot(base, 5), 5); err != nil {
		t.Fatal(err)
	}
	old := CheckpointSlot(base, 6)
	if err := h.WriteImage(old, 6); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(full[8:], fileVersion-1) // the version field
	if err := os.WriteFile(old, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadImageInfo(old); !errors.Is(err, ErrImageVersion) {
		t.Fatalf("ReadImageInfo err = %v, want ErrImageVersion", err)
	}
	if _, _, err := LoadImage(old); !errors.Is(err, ErrImageVersion) {
		t.Fatalf("LoadImage err = %v, want ErrImageVersion", err)
	}
	if _, err := VerifyImage(old); !errors.Is(err, ErrImageVersion) {
		t.Fatalf("VerifyImage err = %v, want ErrImageVersion", err)
	}
	cands := ImageCandidates(base)
	if len(cands) != 2 || cands[0].Generation != 5 || cands[0].Err != nil ||
		cands[1].Path != old || !errors.Is(cands[1].Err, ErrImageVersion) {
		t.Fatalf("candidates = %+v", cands)
	}
}

func TestWriteImageCrashAtFaultPoints(t *testing.T) {
	for _, point := range []string{"persist.header", "persist.mid_image", "persist.rename"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store.heap")
			h := New(4 * ImageRegionSize)
			h.Store64(0, 100)
			if err := h.WriteImage(path, 1); err != nil {
				t.Fatal(err)
			}
			h.Store64(0, 200)
			if err := faultpoint.Arm(point, func() { panic("crash: " + point) }); err != nil {
				t.Fatal(err)
			}
			defer faultpoint.DisarmAll()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not fire", point)
					}
				}()
				_ = h.WriteImage(path, 2)
			}()
			// The previous complete image must still load.
			back, info, err := LoadImage(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Generation != 1 || back.Load64(0) != 100 {
				t.Fatalf("after crash at %s: gen %d, word %d", point, info.Generation, back.Load64(0))
			}
		})
	}
}

// A heap word that changes between WriteImage's summing read and its
// writing read (a gate entrant setting its op word and withdrawing while a
// checkpoint runs) must not leave an image its own checksums refuse: the
// write fails, or it writes an image that loads. The next write, on a
// still heap, succeeds.
func TestWriteImageHeapChangedMidWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.heap")
	h := New(4 * ImageRegionSize)
	const word = ImageRegionSize + 8
	if err := faultpoint.Arm("persist.header", func() { h.AtomicStore64(word, 7) }); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()
	if err := h.WriteImage(path, 1); err == nil {
		if _, _, err := LoadImage(path); err != nil {
			t.Fatalf("WriteImage wrote an image that does not load: %v", err)
		}
	}
	if err := h.WriteImage(path, 2); err != nil {
		t.Fatal(err)
	}
	back, info, err := LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 || back.Load64(word) != 7 {
		t.Fatalf("retried image: gen %d, word %d", info.Generation, back.Load64(word))
	}
}
