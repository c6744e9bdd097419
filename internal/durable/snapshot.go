// Package durable is the crash-durability layer of the prediction
// service: a versioned, CRC-checksummed snapshot format for cache
// state and an append-only request journal with fsync batching for
// work that was in flight when the process died. The design rule
// throughout is that corruption is *data loss, never an outage*: a
// corrupt or truncated entry is skipped and counted, and the rest of
// the file still loads.
//
// Snapshots are written atomically (temp file + fsync + rename), so a
// crash mid-write leaves the previous snapshot intact — readers never
// observe a torn snapshot. The journal is append-only, so a crash can
// tear at most its tail, which replay detects and drops.
package durable

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Snapshot file layout (all integers little-endian):
//
//	magic   "BLSNAP" + uint16 version
//	entry*  'E' | crc32 | len(section) uint16 | len(key) uint32 |
//	        len(payload) uint32 | section | key | payload
//	trailer 'T' | crc32 | entry count uint64
//
// The per-entry CRC covers the three length fields and the three byte
// strings, so a bit flip anywhere in an entry is detected. The trailer
// makes truncation detectable even when the file is cut exactly at an
// entry boundary.
const (
	snapshotMagic   = "BLSNAP"
	snapshotVersion = 1

	recEntry   = 'E'
	recTrailer = 'T'

	entryHeaderLen   = 1 + 4 + 2 + 4 + 4
	trailerLen       = 1 + 4 + 8
	maxSectionLen    = 1 << 12
	snapshotBaseSize = len(snapshotMagic) + 2
)

// Entry is one snapshot record: an opaque payload filed under a section
// (which cache it belongs to) and a key (the cache key).
type Entry struct {
	Section string
	Key     string
	Payload []byte
}

// SnapshotStats reports what a decode found. Decoding never fails on
// malformed input; everything unusable is counted here instead.
type SnapshotStats struct {
	// Entries is the number of entries that decoded cleanly.
	Entries int
	// Skipped counts entries dropped for CRC mismatch, implausible
	// lengths, or a torn tail.
	Skipped int
	// Truncated is set when the file ends without a valid trailer (or
	// mid-entry), i.e. the tail was lost.
	Truncated bool
	// BadMagic is set when the file does not start with the snapshot
	// magic; no entries are recovered.
	BadMagic bool
	// VersionSkew is set when the magic matches but the version is not
	// ours; no entries are recovered (formats are not forward-readable).
	VersionSkew bool
}

// EncodeSnapshot serializes entries into the snapshot format.
func EncodeSnapshot(entries []Entry) []byte {
	size := snapshotBaseSize + trailerLen
	for _, e := range entries {
		size += entryHeaderLen + len(e.Section) + len(e.Key) + len(e.Payload)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapshotVersion)
	for _, e := range entries {
		var hdr [10]byte
		binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(e.Section)))
		binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(e.Key)))
		binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(e.Payload)))
		crc := crc32.NewIEEE()
		crc.Write(hdr[:])
		crc.Write([]byte(e.Section))
		crc.Write([]byte(e.Key))
		crc.Write(e.Payload)
		buf = append(buf, recEntry)
		buf = binary.LittleEndian.AppendUint32(buf, crc.Sum32())
		buf = append(buf, hdr[:]...)
		buf = append(buf, e.Section...)
		buf = append(buf, e.Key...)
		buf = append(buf, e.Payload...)
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], uint64(len(entries)))
	buf = append(buf, recTrailer)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(count[:]))
	buf = append(buf, count[:]...)
	return buf
}

// DecodeSnapshot parses snapshot bytes. It never fails: whatever
// decodes cleanly is returned, and everything else is counted in the
// stats. Arbitrary (fuzzed, corrupted, truncated) input is safe.
func DecodeSnapshot(data []byte) ([]Entry, SnapshotStats) {
	var st SnapshotStats
	if len(data) < snapshotBaseSize || string(data[:len(snapshotMagic)]) != snapshotMagic {
		st.BadMagic = true
		return nil, st
	}
	if v := binary.LittleEndian.Uint16(data[len(snapshotMagic):snapshotBaseSize]); v != snapshotVersion {
		st.VersionSkew = true
		return nil, st
	}
	var entries []Entry
	off := snapshotBaseSize
	for {
		if off == len(data) {
			// Ran off the end without a trailer: the tail (at least the
			// trailer, possibly entries) was lost.
			st.Truncated = true
			break
		}
		switch data[off] {
		case recTrailer:
			if off+trailerLen > len(data) {
				st.Truncated = true
				st.Skipped++
				break
			}
			crc := binary.LittleEndian.Uint32(data[off+1 : off+5])
			count := data[off+5 : off+13]
			if crc32.ChecksumIEEE(count) != crc ||
				binary.LittleEndian.Uint64(count) != uint64(len(entries)+st.Skipped) {
				// A corrupt trailer means we cannot be sure we saw every
				// entry that was written.
				st.Truncated = true
				st.Skipped++
			}
		case recEntry:
			if off+entryHeaderLen > len(data) {
				st.Truncated = true
				st.Skipped++
				break
			}
			crc := binary.LittleEndian.Uint32(data[off+1 : off+5])
			hdr := data[off+5 : off+entryHeaderLen]
			slen := int(binary.LittleEndian.Uint16(hdr[0:2]))
			klen := int(binary.LittleEndian.Uint32(hdr[2:6]))
			plen := int(binary.LittleEndian.Uint32(hdr[6:10]))
			body := off + entryHeaderLen
			end := body + slen + klen + plen
			if slen > maxSectionLen || klen > len(data) || plen > len(data) || end > len(data) || end < body {
				// The length fields themselves are implausible, so we have
				// no way to find the next record: treat the rest as lost.
				st.Truncated = true
				st.Skipped++
				break
			}
			if crc32.ChecksumIEEE(data[off+5:end]) != crc {
				// Payload bit flip: the lengths framed a record, so we can
				// skip exactly this entry and keep going.
				st.Skipped++
				off = end
				continue
			}
			entries = append(entries, Entry{
				Section: string(data[body : body+slen]),
				Key:     string(data[body+slen : body+slen+klen]),
				Payload: append([]byte(nil), data[body+slen+klen:end]...),
			})
			off = end
			continue
		default:
			// Unknown record tag: no framing to resync on.
			st.Truncated = true
			st.Skipped++
		}
		break
	}
	st.Entries = len(entries)
	return entries, st
}

// WriteSnapshotFile atomically replaces path with a snapshot of
// entries (see replaceFile).
func WriteSnapshotFile(path string, entries []Entry) error {
	f, err := replaceFile(path, EncodeSnapshot(entries))
	if err != nil {
		return err
	}
	return f.Close()
}

// replaceFile atomically replaces path with data: the bytes are written
// to a temp file in the same directory, fsynced, and renamed over path,
// so a crash at any point leaves either the old file or the new one —
// never a torn file. It returns the new file, open for writing at its
// end.
func replaceFile(path string, data []byte) (*os.File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		tmp.Close()
		return nil, err
	}
	// Persist the rename itself. Directory fsync is advisory on some
	// platforms; failure to open the directory is not fatal.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return tmp, nil
}

// ReadSnapshotFile loads and decodes a snapshot. A missing file is an
// os.IsNotExist error; decode problems are never errors — they show up
// in the stats per DecodeSnapshot.
func ReadSnapshotFile(path string) ([]Entry, SnapshotStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, SnapshotStats{}, err
	}
	entries, st := DecodeSnapshot(data)
	return entries, st, nil
}
