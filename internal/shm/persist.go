package shm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"plibmc/internal/faultpoint"
)

// Persistence.
//
// The paper's bookkeeping process flushes the entire store back to the
// heap's backing file on shutdown, and a restarted store maps the file and
// finds its contents intact (position independence makes the bytes valid at
// any base). The paper calls full crash consistency future work; this
// implementation closes part of that gap: images are generation-stamped and
// checksummed (one running CRC-32C over the body, sampled at the end of
// every 64 KiB region, the allocator's superblock granule), written via
// write-temp-then-atomic-rename, and validated on load. A reader that finds
// a torn, truncated or bit-flipped image gets a typed error instead of
// silently attaching to garbage, and the checkpoint coordinator keeps two
// alternating image slots (an A/B scheme) so the newest generation that
// verifies can always be recovered.

const (
	fileMagic = 0x50_4C_49_42_48_45_41_50 // "PLIBHEAP"
	// fileVersion 3 changed every checksum, in images and in the items
	// they hold, from CRC-64/FNV to CRC-32C; older images are refused.
	fileVersion = 3

	// ImageRegionSize is the per-region checksum granularity: one CRC per
	// 64 KiB of heap, matching the allocator's superblock (chunk) size, so
	// a verification failure localizes corruption to one superblock.
	ImageRegionSize = 64 << 10

	// imageHeaderSize is the fixed on-disk header. The region table that
	// follows it holds, for region r, the CRC-32C of the body from byte 0
	// to the end of region r: one pass yields every entry, the last entry
	// is the whole-image sum, and region r is verified on its own by
	// continuing the sum from entry r-1.
	//
	//	+0   magic        "PLIBHEAP"
	//	+8   version      3
	//	+16  generation   checkpoint generation stamp
	//	+24  heap size    bytes (multiple of PageSize)
	//	+32  region size  ImageRegionSize at write time
	//	+40  region count ceil(size/regionSize)
	//	+48  image sum    crc32c(whole serialized body)
	//	+56  table sum    crc32c(region table)
	//	+64  reserved     (zero)
	//	+88  header sum   crc32c(bytes 0..88)
	imageHeaderSize = 96
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C continues the running CRC-32C sum with b; a sum starts at 0. It
// is the one checksum over persisted bytes — image headers, tables and
// regions here, item values in package core — because amd64 and arm64
// compute it in hardware at several bytes per cycle.
func CRC32C(sum uint32, b []byte) uint32 { return crc32.Update(sum, castagnoli, b) }

// Typed image errors. Loaders wrap these (errors.Is-matchable) so callers
// can distinguish "not an image at all" from "an image that failed its
// integrity checks" and decide whether a fallback generation should engage.
var (
	ErrNotImage       = errors.New("shm: not a heap image")
	ErrImageVersion   = errors.New("shm: unsupported heap image version")
	ErrImageTruncated = errors.New("shm: truncated heap image")
	ErrImageChecksum  = errors.New("shm: heap image checksum mismatch")
)

// Crash-injection sites inside the image writer, covered by the fault
// matrix: dying at any of them must leave a previous image loadable.
var (
	fpPersistHeader   = faultpoint.New("persist.header")    // header written, body not
	fpPersistMidImage = faultpoint.New("persist.mid_image") // half the regions written
	fpPersistRename   = faultpoint.New("persist.rename")    // temp complete, not yet renamed
)

// ImageInfo describes a heap image's header.
type ImageInfo struct {
	Path       string
	Generation uint64
	HeapBytes  uint64
	RegionSize uint64
	Regions    uint64
}

// regionSpan returns the heap byte range region r covers in a heap of the
// given size; the final region may be short. An image body is the heap's
// bytes verbatim, so regions are summed, written and loaded where they lie
// (Heap.view).
func regionSpan(size, r uint64) (start, n uint64) {
	start = r * ImageRegionSize
	return start, min(size-start, ImageRegionSize)
}

func regionCount(size uint64) uint64 {
	return (size + ImageRegionSize - 1) / ImageRegionSize
}

// WriteImage writes a generation-stamped, checksummed heap image to the
// named file, replacing any previous contents. It is atomic with respect
// to crashes of the writer itself: the image is written to a temporary
// file, synced, and renamed into place, so a crash at any point leaves
// either the previous image or the complete new one — never a blend.
//
// The heap is read twice, once to sum it and once to write it, through
// word loads: even a quiesced store sees a gate entrant set its op word
// and withdraw. A region whose bytes changed between the two reads fails
// the write rather than leave an image its own checksums refuse.
func (h *Heap) WriteImage(path string, generation uint64) error {
	nRegions := regionCount(h.size)
	table := make([]byte, nRegions*8)
	buf := make([]byte, ImageRegionSize)
	region := func(r uint64) []byte {
		start, n := regionSpan(h.size, r)
		h.AtomicReadBytes(start, buf[:n])
		return buf[:n]
	}
	var sum uint32
	for r := uint64(0); r < nRegions; r++ {
		sum = CRC32C(sum, region(r))
		binary.LittleEndian.PutUint64(table[r*8:], uint64(sum))
	}
	hdr := make([]byte, imageHeaderSize)
	binary.LittleEndian.PutUint64(hdr[0:], fileMagic)
	binary.LittleEndian.PutUint64(hdr[8:], fileVersion)
	binary.LittleEndian.PutUint64(hdr[16:], generation)
	binary.LittleEndian.PutUint64(hdr[24:], h.size)
	binary.LittleEndian.PutUint64(hdr[32:], ImageRegionSize)
	binary.LittleEndian.PutUint64(hdr[40:], nRegions)
	binary.LittleEndian.PutUint64(hdr[48:], uint64(sum))
	binary.LittleEndian.PutUint64(hdr[56:], uint64(CRC32C(0, table)))
	binary.LittleEndian.PutUint64(hdr[88:], uint64(CRC32C(0, hdr[:88])))

	tmp := path + ".tmp"
	fs := currentImageFS()
	// A failed write must not leave a half-built temp file behind: the
	// prior image (and its .a/.b slots) stay the loadable state, and the
	// next attempt starts clean. Rename failures leave tmp for the same
	// reason a crash there would — it is complete and synced — unless the
	// injected fault already destroyed it.
	werr := func(err error) error {
		fs.Remove(tmp) //nolint:errcheck // best-effort cleanup of a torn temp
		return fmt.Errorf("shm: write image: %w", err)
	}
	f, err := fs.Create(tmp)
	if err != nil {
		return werr(err)
	}
	// A fault-point handler panics out of this function mid-write (the
	// simulated crash); close the descriptor on that unwind too so the
	// torn temp file is not also a leaked handle.
	closed := false
	defer func() {
		if !closed {
			f.Close()
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.Write(hdr); err != nil {
		return werr(err)
	}
	fpPersistHeader.Maybe()
	if _, err := w.Write(table); err != nil {
		return werr(err)
	}
	sum = 0
	for r := uint64(0); r < nRegions; r++ {
		if r == nRegions/2 {
			fpPersistMidImage.Maybe()
		}
		b := region(r)
		if sum = CRC32C(sum, b); uint64(sum) != binary.LittleEndian.Uint64(table[r*8:]) {
			return werr(fmt.Errorf("region %d changed while it was written", r))
		}
		if _, err := w.Write(b); err != nil {
			return werr(err)
		}
	}
	if err := w.Flush(); err != nil {
		return werr(err)
	}
	if err := f.Sync(); err != nil {
		return werr(err)
	}
	closed = true
	if err := f.Close(); err != nil {
		return werr(err)
	}
	fpPersistRename.Maybe()
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("shm: write image: %w", err)
	}
	return nil
}

// Flush writes the heap image to the named file with generation 1. It is
// the orderly-shutdown form of WriteImage for callers that do not run the
// generation-stamped A/B checkpoint scheme.
func (h *Heap) Flush(path string) error {
	return h.WriteImage(path, 1)
}

// readHeader reads and validates the fixed image header at byte 0 of r.
func readHeader(path string, r io.Reader) (ImageInfo, error) {
	hdr := make([]byte, imageHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return ImageInfo{}, fmt.Errorf("%w: %s: short header: %v", ErrNotImage, path, err)
	}
	return parseHeader(path, hdr)
}

// readRegionTable reads the region-checksum table after the header and
// returns it, validating it against the header's table CRC.
func readRegionTable(path string, r io.Reader, hdrTableCRC uint64, nRegions uint64) ([]uint64, error) {
	table := make([]byte, nRegions*8)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, fmt.Errorf("%w: %s: short region table: %v", ErrImageTruncated, path, err)
	}
	if got := uint64(CRC32C(0, table)); got != hdrTableCRC {
		return nil, fmt.Errorf("%w: %s: region table crc %#x, want %#x", ErrImageChecksum, path, got, hdrTableCRC)
	}
	crcs := make([]uint64, nRegions)
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint64(table[i*8:])
	}
	return crcs, nil
}

// openImage opens an image file, validates the header against the file's
// actual length (a truncated or size-mismatched file fails cleanly here,
// before any region is read), and returns the reader positioned after the
// header plus the header's image/table CRCs.
func openImage(path string) (*os.File, *bufio.Reader, ImageInfo, uint64, uint64, error) {
	var info ImageInfo
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, info, 0, 0, fmt.Errorf("shm: load: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, info, 0, 0, fmt.Errorf("shm: load: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	// Re-read the raw header here (not via readHeader) so the image/table
	// CRC fields can be returned alongside the parsed info.
	hdr := make([]byte, imageHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		f.Close()
		return nil, nil, info, 0, 0, fmt.Errorf("%w: %s: short header: %v", ErrNotImage, path, err)
	}
	info, err = parseHeader(path, hdr)
	if err != nil {
		f.Close()
		return nil, nil, info, 0, 0, err
	}
	want := int64(imageHeaderSize) + int64(info.Regions*8) + int64(info.HeapBytes)
	if st.Size() != want {
		f.Close()
		return nil, nil, info, 0, 0, fmt.Errorf("%w: %s is %d bytes, want %d", ErrImageTruncated, path, st.Size(), want)
	}
	imageCRC := binary.LittleEndian.Uint64(hdr[48:])
	tableCRC := binary.LittleEndian.Uint64(hdr[56:])
	return f, r, info, imageCRC, tableCRC, nil
}

// parseHeader validates a raw header block (see readHeader for the lazy
// io.Reader form used by ReadImageInfo).
func parseHeader(path string, hdr []byte) (ImageInfo, error) {
	var info ImageInfo
	if binary.LittleEndian.Uint64(hdr[0:]) != fileMagic {
		return info, fmt.Errorf("%w: %s", ErrNotImage, path)
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v != fileVersion {
		return info, fmt.Errorf("%w: %s has version %d, want %d", ErrImageVersion, path, v, fileVersion)
	}
	if got, want := uint64(CRC32C(0, hdr[:88])), binary.LittleEndian.Uint64(hdr[88:]); got != want {
		return info, fmt.Errorf("%w: %s: header crc %#x, want %#x", ErrImageChecksum, path, got, want)
	}
	info = ImageInfo{
		Path:       path,
		Generation: binary.LittleEndian.Uint64(hdr[16:]),
		HeapBytes:  binary.LittleEndian.Uint64(hdr[24:]),
		RegionSize: binary.LittleEndian.Uint64(hdr[32:]),
		Regions:    binary.LittleEndian.Uint64(hdr[40:]),
	}
	if info.HeapBytes == 0 || info.HeapBytes%PageSize != 0 || info.HeapBytes > 1<<40 {
		return info, fmt.Errorf("%w: %s: implausible heap size %d", ErrNotImage, path, info.HeapBytes)
	}
	if info.RegionSize != ImageRegionSize || info.Regions != regionCount(info.HeapBytes) {
		return info, fmt.Errorf("%w: %s: inconsistent region geometry", ErrNotImage, path)
	}
	return info, nil
}

// ReadImageInfo reads and validates only an image's header. Cheap: used to
// rank candidate images by generation without reading their bodies.
func ReadImageInfo(path string) (ImageInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ImageInfo{}, fmt.Errorf("shm: load: %w", err)
	}
	defer f.Close()
	return readHeader(path, f)
}

// LoadImage reads a heap image, validating the header, the region-checksum
// table, every per-region checksum, and the whole-image checksum. Any
// mismatch returns a typed error and no heap.
func LoadImage(path string) (*Heap, ImageInfo, error) {
	f, r, info, wantImageCRC, wantTableCRC, err := openImage(path)
	if err != nil {
		return nil, info, err
	}
	defer f.Close()
	crcs, err := readRegionTable(path, r, wantTableCRC, info.Regions)
	if err != nil {
		return nil, info, err
	}
	h := newHeap(info.HeapBytes)
	var sum uint32
	for reg := uint64(0); reg < info.Regions; reg++ {
		start, n := regionSpan(info.HeapBytes, reg)
		b := h.view(start, n, true)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, info, fmt.Errorf("%w: %s: region %d: %v", ErrImageTruncated, path, reg, err)
		}
		if sum = CRC32C(sum, b); uint64(sum) != crcs[reg] {
			return nil, info, fmt.Errorf("%w: %s: region %d (heap %#x..%#x) crc %#x, want %#x",
				ErrImageChecksum, path, reg, start, start+n, sum, crcs[reg])
		}
	}
	if uint64(sum) != wantImageCRC {
		return nil, info, fmt.Errorf("%w: %s: image crc %#x, want %#x", ErrImageChecksum, path, sum, wantImageCRC)
	}
	return h, info, nil
}

// Load reads a heap image previously written by WriteImage or Flush.
func Load(path string) (*Heap, error) {
	h, _, err := LoadImage(path)
	return h, err
}

// RegionFault describes one region whose checksum failed verification.
type RegionFault struct {
	Region   uint64 // region index
	Off, Len uint64 // heap byte range the region covers
	Got      uint64
	Want     uint64
}

// VerifyReport is the result of a full offline image verification.
type VerifyReport struct {
	Info       ImageInfo
	BadRegions []RegionFault
	TableOK    bool
	ImageCRCOK bool
}

// OK reports whether the image verified completely.
func (r *VerifyReport) OK() bool {
	return r.TableOK && r.ImageCRCOK && len(r.BadRegions) == 0
}

// VerifyImage checks every checksum in an image without building a heap,
// and — unlike LoadImage, which stops at the first mismatch — scans to the
// end so the report localizes all corrupt regions. Header-level problems
// (bad magic, version, truncation, torn header) are returned as errors;
// body corruption is returned in the report.
func VerifyImage(path string) (*VerifyReport, error) {
	f, r, info, wantImageCRC, wantTableCRC, err := openImage(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep := &VerifyReport{Info: info, TableOK: true, ImageCRCOK: true}
	table := make([]byte, info.Regions*8)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, fmt.Errorf("%w: %s: short region table: %v", ErrImageTruncated, path, err)
	}
	if uint64(CRC32C(0, table)) != wantTableCRC {
		rep.TableOK = false
	}
	buf := make([]byte, ImageRegionSize)
	// Each region continues the sum from the table's previous entry, not
	// from the bytes actually read, so one bad region does not condemn
	// every region after it; when that fails it is tried once more from
	// the sum computed for the previous region, so a damaged table entry
	// over an intact body is charged to its own region, not to the next.
	var want, got uint64
	for reg := uint64(0); reg < info.Regions; reg++ {
		start, n := regionSpan(info.HeapBytes, reg)
		b := buf[:n]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("%w: %s: region %d: %v", ErrImageTruncated, path, reg, err)
		}
		seed, prev := uint32(want), uint32(got)
		want = binary.LittleEndian.Uint64(table[reg*8:])
		if got = uint64(CRC32C(seed, b)); got != want && prev != seed && uint64(CRC32C(prev, b)) == want {
			got = want
		}
		if got != want {
			rep.BadRegions = append(rep.BadRegions, RegionFault{
				Region: reg, Off: start, Len: n, Got: got, Want: want,
			})
		}
	}
	rep.ImageCRCOK = len(rep.BadRegions) == 0 && want == wantImageCRC
	return rep, nil
}

// CheckpointSlot returns the image path for a given checkpoint generation
// under base: generations alternate between base+".a" and base+".b" (the
// dual-image scheme), so a crash while writing one slot always leaves the
// other slot's complete previous generation on disk.
func CheckpointSlot(base string, generation uint64) string {
	if generation%2 == 1 {
		return base + ".a"
	}
	return base + ".b"
}

// Candidate is one existing image file that may satisfy a load of base.
type Candidate struct {
	Path       string
	Generation uint64 // 0 if the header was unreadable
	Err        error  // non-nil if the header failed validation
}

// ImageCandidates enumerates the image files that can satisfy a load of
// base — the base path itself (an orderly-shutdown flush or a pre-A/B
// image) and the two checkpoint slots — ordered best-first: readable
// headers by descending generation, then unreadable files (still listed so
// a caller's error report can name them). Missing files are omitted.
func ImageCandidates(base string) []Candidate {
	var out []Candidate
	for _, p := range []string{base, base + ".a", base + ".b"} {
		if _, err := os.Stat(p); err != nil {
			continue
		}
		info, err := ReadImageInfo(p)
		out = append(out, Candidate{Path: p, Generation: info.Generation, Err: err})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].Err == nil) != (out[j].Err == nil) {
			return out[i].Err == nil
		}
		return out[i].Generation > out[j].Generation
	})
	return out
}
