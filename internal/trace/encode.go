package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Binary trace file format: a magic header followed by fixed-width
// little-endian event records. This mirrors the kernel module from §4.2
// that dumps the in-memory global array to a file for offline plotting.
//
// Version history:
//
//	v1: 16-byte header — magic(4) version(2) reserved(2) count(8)
//	v2: 24-byte header — v1 plus dropped(8), the recorder's lost-event
//	    count, so offline consumers can tell a complete capture from a
//	    truncated one (drops were silent in v1 files)
const (
	fileMagic   = "WCTR"
	fileVersion = uint16(2)
	recordSize  = 8 + 1 + 1 + 2 + 4 + 8 + 8 + 16 // = 48 bytes
)

// Meta is the non-event information carried by a binary trace file.
type Meta struct {
	// Version is the file format version the trace was read from.
	Version uint16
	// Dropped is the recorder's lost-event count at write time (always
	// zero when reading a v1 file, which did not record it).
	Dropped uint64
}

// WriteTo serializes all recorded events to w in the binary trace format
// (current version, including the dropped-event count). It returns the
// number of bytes written.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	hdr := make([]byte, 0, 24)
	hdr = append(hdr, fileMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, fileVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0) // reserved
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(r.events)))
	hdr = binary.LittleEndian.AppendUint64(hdr, r.dropped)
	k, err := bw.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 0, recordSize)
	for i := range r.events {
		ev := &r.events[i]
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.At))
		buf = append(buf, byte(ev.Kind), byte(ev.Op), ev.Code, 0)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.CPU))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Arg))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Aux))
		buf = binary.LittleEndian.AppendUint64(buf, ev.Mask[0])
		buf = binary.LittleEndian.AppendUint64(buf, ev.Mask[1])
		k, err = bw.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses a binary trace previously produced by WriteTo, discarding
// file metadata. See ReadMeta.
func Read(rd io.Reader) ([]Event, error) {
	events, _, err := ReadMeta(rd)
	return events, err
}

// ReadMeta parses a binary trace previously produced by WriteTo,
// returning the events and the file metadata (format version and the
// recorder's dropped-event count). Both v1 and v2 files are accepted.
func ReadMeta(rd io.Reader) ([]Event, Meta, error) {
	var meta Meta
	br := bufio.NewReader(rd)
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, meta, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != fileMagic {
		return nil, meta, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	meta.Version = binary.LittleEndian.Uint16(hdr[4:6])
	if meta.Version < 1 || meta.Version > fileVersion {
		return nil, meta, fmt.Errorf("trace: unsupported version %d", meta.Version)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if meta.Version >= 2 {
		var ext [8]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return nil, meta, fmt.Errorf("trace: reading v2 header: %w", err)
		}
		meta.Dropped = binary.LittleEndian.Uint64(ext[:])
	}
	const sane = 1 << 28
	if count > sane {
		return nil, meta, fmt.Errorf("trace: implausible event count %d", count)
	}
	// The count is untrusted: preallocate a bounded prefix and let append
	// grow a genuinely large trace, so a corrupt header fails at EOF
	// instead of forcing a multi-gigabyte allocation.
	events := make([]Event, 0, min(count, 1<<16))
	buf := make([]byte, recordSize)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, meta, fmt.Errorf("trace: reading event %d: %w", i, err)
		}
		var ev Event
		ev.At = sim.Time(binary.LittleEndian.Uint64(buf[0:8]))
		ev.Kind = Kind(buf[8])
		ev.Op = Op(buf[9])
		ev.Code = buf[10]
		ev.CPU = int32(binary.LittleEndian.Uint32(buf[12:16]))
		ev.Arg = int64(binary.LittleEndian.Uint64(buf[16:24]))
		ev.Aux = int64(binary.LittleEndian.Uint64(buf[24:32]))
		ev.Mask[0] = binary.LittleEndian.Uint64(buf[32:40])
		ev.Mask[1] = binary.LittleEndian.Uint64(buf[40:48])
		events = append(events, ev)
	}
	return events, meta, nil
}
