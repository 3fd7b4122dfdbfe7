// Package dump writes simulation snapshots in the extended-XYZ format, the
// analogue of LAMMPS's `dump` command. Snapshots gather atoms from every
// rank, sort by global id so output is decomposition-independent, and
// append one frame per call.
package dump

import (
	"bufio"
	"fmt"
	"io"

	"tofumd/internal/md/sim"
)

// Writer appends XYZ frames to an underlying stream.
type Writer struct {
	w *bufio.Writer
	// Element is the species label written per atom (default "Ar").
	Element string
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), Element: "Ar"}
}

// WriteFrame gathers the simulation's local atoms and appends one frame.
func (d *Writer) WriteFrame(s *sim.Simulation, step int) error {
	atoms := s.Gather()
	box := s.Decomp().Box
	if _, err := fmt.Fprintf(d.w, "%d\n", len(atoms)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(d.w,
		`Lattice="%g 0 0 0 %g 0 0 0 %g" Properties=species:S:1:pos:R:3:vel:R:3 Timestep=%d`+"\n",
		box.X, box.Y, box.Z, step); err != nil {
		return err
	}
	for _, a := range atoms {
		if _, err := fmt.Fprintf(d.w, "%s %.8g %.8g %.8g %.8g %.8g %.8g\n",
			d.Element, a.Pos.X, a.Pos.Y, a.Pos.Z, a.Vel.X, a.Vel.Y, a.Vel.Z); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains buffered output.
func (d *Writer) Flush() error { return d.w.Flush() }
