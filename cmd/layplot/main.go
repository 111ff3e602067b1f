// Command layplot renders a CIF layout to PNG in the classic
// Mead–Conway colours (the plotting role of the historical cifplot).
//
// Usage:
//
//	layplot -o chip.png chip.cif
//	layplot -net OUT -o out.png chip.cif   highlight one extracted net
//	layplot -o '' chip.cif > chip.png       write the PNG to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ace/internal/cif"
	"ace/internal/cli"
	"ace/internal/extract"
	"ace/internal/frontend"
	"ace/internal/render"
)

func main() {
	var (
		out    = flag.String("o", "layout.png", "output PNG file (empty: stdout)")
		maxDim = flag.Int("size", 1024, "longest image dimension in pixels")
		net    = flag.String("net", "", "extract the design and highlight this net's geometry")
	)
	flag.Parse()

	r := os.Stdin
	if flag.Arg(0) != "" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	f, err := cif.Parse(r)
	if err != nil {
		fatal(err)
	}
	stream, err := frontend.New(f, frontend.Options{KeepGlass: true})
	if err != nil {
		fatal(err)
	}
	opt := render.Options{MaxDim: *maxDim}
	if *net != "" {
		res, err := extract.File(f, extract.Options{KeepGeometry: true})
		if err != nil {
			fatal(err)
		}
		idx, ok := res.Netlist.NetByName(*net)
		if !ok {
			fatal(fmt.Errorf("no net named %q in the extracted design", *net))
		}
		for _, g := range res.Netlist.Nets[idx].Geometry {
			opt.Highlight = append(opt.Highlight, g.Rect)
		}
	}
	if err := cli.WriteOutput(*out, func(w io.Writer) error {
		return render.WritePNG(w, stream.Drain(), opt)
	}); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Println("wrote", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layplot:", err)
	os.Exit(1)
}
