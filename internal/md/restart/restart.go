// Package restart writes and reads binary checkpoints of a simulation's
// atomic state (the analogue of LAMMPS `write_restart` / `read_restart`).
// A checkpoint captures the global box and every atom's id, type, position
// and velocity; restoring distributes atoms back onto whatever
// decomposition the new run uses, so a run checkpointed on one machine
// shape can resume on another.
package restart

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// Restart file magics. Version 2 appends a little-endian IEEE CRC32 of
// everything before it (magic included), so a torn or bit-flipped
// checkpoint is rejected instead of resuming a corrupted trajectory.
// Version 1 files (no trailer, so unverifiable) are recognized only to be
// refused by name; nothing writes them.
const (
	magicV1 = "TOFUMD01"
	magicV2 = "TOFUMD02"
)

// Snapshot is the decomposition-independent state of a system.
type Snapshot struct {
	Step  int64
	Box   vec.V3
	Atoms []sim.InitAtom
}

// Capture gathers a snapshot from a running simulation, sorted by atom id.
func Capture(s *sim.Simulation, step int) *Snapshot {
	return &Snapshot{Step: int64(step), Box: s.Decomp().Box, Atoms: s.Gather()}
}

// Write serializes the snapshot in the current (version 2) format: magic,
// body, CRC32 trailer over both.
func Write(w io.Writer, snap *Snapshot) error {
	bw := bufio.NewWriter(w)
	sum := crc32.NewIEEE()
	mw := io.MultiWriter(bw, sum)
	if _, err := io.WriteString(mw, magicV2); err != nil {
		return err
	}
	writeU64 := func(v uint64) { binary.Write(mw, binary.LittleEndian, v) }
	writeF := func(v float64) { writeU64(math.Float64bits(v)) }
	writeU64(uint64(snap.Step))
	writeF(snap.Box.X)
	writeF(snap.Box.Y)
	writeF(snap.Box.Z)
	writeU64(uint64(len(snap.Atoms)))
	for _, a := range snap.Atoms {
		writeU64(uint64(a.ID))
		writeU64(uint64(a.Type))
		for _, v := range []float64{a.Pos.X, a.Pos.Y, a.Pos.Z, a.Vel.X, a.Vel.Y, a.Vel.Z} {
			writeF(v)
		}
	}
	// Trailer goes to the file only, not into its own checksum.
	if err := binary.Write(bw, binary.LittleEndian, sum.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the snapshot to path atomically: it goes to a temporary
// file that is renamed into place only once complete, so a crash mid-write
// never leaves a truncated checkpoint under the final name. On error the
// temporary file is removed.
func WriteFile(path string, snap *Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = Write(f, snap)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ReadFile reads the checkpoint at path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// truncated classifies short-read errors so every truncation surfaces as
// one clearly worded failure.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("restart: truncated checkpoint: %w", err)
	}
	return err
}

// Read deserializes a snapshot in the current version-2 format, verifying
// its CRC32 trailer. Legacy version-1 files are rejected.
func Read(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, truncated(fmt.Errorf("restart: %w", err))
	}
	switch string(head) {
	case magicV2:
	case magicV1:
		return nil, fmt.Errorf("restart: version-1 checkpoint (%s, no checksum) is no longer read", magicV1)
	default:
		return nil, fmt.Errorf("restart: bad magic %q", head)
	}
	sum := crc32.NewIEEE()
	sum.Write(head)
	snap, err := readBody(io.TeeReader(br, sum))
	if err != nil {
		return nil, err
	}
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, truncated(fmt.Errorf("restart: missing checksum trailer: %w", err))
	}
	if got := sum.Sum32(); got != want {
		return nil, fmt.Errorf("restart: corrupt checkpoint: crc32 %08x, trailer says %08x", got, want)
	}
	return snap, nil
}

// readBody deserializes the snapshot body between magic and trailer.
func readBody(r io.Reader) (*Snapshot, error) {
	readU64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	readF := func() (float64, error) {
		v, err := readU64()
		return math.Float64frombits(v), err
	}
	snap := &Snapshot{}
	step, err := readU64()
	if err != nil {
		return nil, truncated(err)
	}
	snap.Step = int64(step)
	if snap.Box.X, err = readF(); err != nil {
		return nil, truncated(err)
	}
	if snap.Box.Y, err = readF(); err != nil {
		return nil, truncated(err)
	}
	if snap.Box.Z, err = readF(); err != nil {
		return nil, truncated(err)
	}
	n, err := readU64()
	if err != nil {
		return nil, truncated(err)
	}
	const maxAtoms = 1 << 32
	if n > maxAtoms {
		return nil, fmt.Errorf("restart: implausible atom count %d", n)
	}
	// Grow incrementally: the count is untrusted input, so a lying header
	// must hit the truncation error, not a giant up-front allocation.
	snap.Atoms = make([]sim.InitAtom, 0, min(n, 4096))
	for i := uint64(0); i < n; i++ {
		id, err := readU64()
		if err != nil {
			return nil, truncated(fmt.Errorf("restart: atom %d: %w", i, err))
		}
		typ, err := readU64()
		if err != nil {
			return nil, truncated(err)
		}
		a := sim.InitAtom{ID: int64(id), Type: int32(typ)}
		vals := [6]*float64{&a.Pos.X, &a.Pos.Y, &a.Pos.Z, &a.Vel.X, &a.Vel.Y, &a.Vel.Z}
		for _, p := range vals {
			if *p, err = readF(); err != nil {
				return nil, truncated(err)
			}
		}
		snap.Atoms = append(snap.Atoms, a)
	}
	return snap, nil
}

// Apply installs the snapshot into a config, validating that the config's
// box matches the checkpointed one.
func (snap *Snapshot) Apply(cfg *sim.Config) error {
	box := cfg.Lat.BoxFor(cfg.Cells)
	const tol = 1e-9
	if math.Abs(box.X-snap.Box.X) > tol ||
		math.Abs(box.Y-snap.Box.Y) > tol ||
		math.Abs(box.Z-snap.Box.Z) > tol {
		return fmt.Errorf("restart: config box %+v does not match checkpoint box %+v", box, snap.Box)
	}
	cfg.Initial = snap.Atoms
	return nil
}
