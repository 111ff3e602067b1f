// Package wirelist reads and writes the CMU hierarchical wirelist
// format of Frank, Ebeling and Sproull — the LISP-like syntax of
// Figures 3-4 and 2-2 ("easy to parse and extend").
//
// The flat form (this package's Write/Parse) carries a DefPart
// containing Part statements for each transistor and Net statements
// for each net. The hierarchical form (written by internal/hext)
// nests DefParts. The original V085 format specification is lost;
// token spellings follow the paper's figures (see DESIGN.md §6).
package wirelist

import (
	"io"
	"strconv"

	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

// Options configures wirelist output.
type Options struct {
	// Geometry includes the CIF geometry of every net and device
	// (ACE's user option; suppressed under normal operation).
	Geometry bool
}

// chunkSize is the size of the buffer Write renders into and flushes
// to its writer: a few syscalls per megabyte of wirelist, and the
// output never has to sit in memory whole.
const chunkSize = 64 << 10

// Write emits a flat netlist in the Figure 3-4 style. It renders
// through one reused chunkSize buffer, flushed to w whenever it fills,
// and returns the first error w reports; nothing more is written after
// it.
func Write(w io.Writer, nl *netlist.Netlist, opt Options) error {
	e := encoder{buf: make([]byte, 0, chunkSize), w: w}
	e.netlist(nl, opt)
	e.flush()
	return e.err
}

// Format renders a netlist to a string.
func Format(nl *netlist.Netlist, opt Options) string {
	b, _ := AppendTo(nil, nl, opt)
	return string(b)
}

// AppendTo renders a netlist onto dst, reusing its capacity — the
// warm-loop form of Format: an extract.Engine output buffer (or any
// caller-kept slice) absorbs the rendering instead of a fresh string
// per run. The bytes are identical to Write's. Appending cannot fail;
// the error result is always nil.
func AppendTo(dst []byte, nl *netlist.Netlist, opt Options) ([]byte, error) {
	e := encoder{buf: dst}
	e.netlist(nl, opt)
	return e.buf, nil
}

// encoder appends the wirelist text to buf. With a writer set, spill
// hands buf to it whenever it passes chunkSize and starts over; with
// none, buf simply grows (AppendTo).
type encoder struct {
	buf []byte
	w   io.Writer
	err error
}

// spill flushes a full chunk to the writer, if there is one.
func (e *encoder) spill() {
	if e.w != nil && len(e.buf) >= chunkSize {
		e.flush()
	}
}

// flush writes buf out and empties it, keeping the first error.
func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *encoder) str(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

// field appends prefix and then i in decimal.
func (e *encoder) field(prefix string, i int) {
	e.str(prefix)
	e.int(int64(i))
}

// box appends one " B L<w> W<h> C<x> <y>;" CIF box clause.
func (e *encoder) box(r geom.Rect) {
	c := r.Center()
	e.str(" B L")
	e.int(r.W())
	e.str(" W")
	e.int(r.H())
	e.str(" C")
	e.int(c.X)
	e.str(" ")
	e.int(c.Y)
	e.str(";")
}

func (e *encoder) netlist(nl *netlist.Netlist, opt Options) {
	name := nl.Name
	if name == "" {
		name = "chip"
	}
	e.str("(DefPart ")
	e.buf = strconv.AppendQuote(e.buf, name)
	e.str("\n(DefPart nEnh (Export Source Gate Drain))\n" +
		"(DefPart nDep (Export Source Gate Drain))\n" +
		"(DefPart nCap (Export Source Gate Drain))\n")

	for i := range nl.Devices {
		if e.err != nil {
			return
		}
		d := &nl.Devices[i]
		e.str("(Part ")
		e.str(d.Type.String())
		e.field(" (InstName D", i)
		e.str(") (Location ")
		e.int(d.Location.X)
		e.str(" ")
		e.int(d.Location.Y)
		e.field(")\n (T Gate N", d.Gate)
		e.field(") (T Source N", d.Source)
		e.field(") (T Drain N", d.Drain)
		e.str(")\n (Channel (Length ")
		e.int(d.Length)
		e.str(") (Width ")
		e.int(d.Width)
		e.str(")")
		if opt.Geometry && len(d.Geometry) > 0 {
			e.str("\n  ( CIF \"")
			for _, r := range d.Geometry {
				e.str(" L NX;")
				e.box(r)
				e.spill()
			}
			e.str(" \")")
		}
		e.str("))\n")
		e.spill()
	}

	for i := range nl.Nets {
		if e.err != nil {
			return
		}
		n := &nl.Nets[i]
		e.field("(Net N", i)
		for _, nm := range n.Names {
			e.str(" ")
			e.str(nm)
		}
		e.str(" (Location ")
		e.int(n.Location.X)
		e.str(" ")
		e.int(n.Location.Y)
		e.str(")")
		if opt.Geometry && len(n.Geometry) > 0 {
			e.str("\n ( CIF \"")
			for _, g := range n.Geometry {
				e.str(" L ")
				e.str(g.Layer.CIFName())
				e.str(";")
				e.box(g.Rect)
				e.spill()
			}
			e.str(" \")")
		}
		e.str(")\n")
		e.spill()
	}

	e.str("(Local")
	for i := range nl.Nets {
		e.field(" N", i)
		e.spill()
	}
	e.str(" ))\n")
}

// deviceTypeByName maps the wirelist part names back to device types.
func deviceTypeByName(s string) (tech.DeviceType, bool) {
	switch s {
	case "nEnh":
		return tech.Enhancement, true
	case "nDep":
		return tech.Depletion, true
	case "nCap":
		return tech.Capacitor, true
	}
	return 0, false
}
