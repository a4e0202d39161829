package framework

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces every suppression comment the lint suite
// understands: //pfsim:orderok, //pfsim:wallclockok and
// //pfsim:goroutineok. Like go: directives they must be line comments
// with no space after the slashes.
const directivePrefix = "//pfsim:"

// Directives indexes every //pfsim: comment of a package by file and
// line, so analyzers can answer "is this statement annotated?" without
// rescanning comment lists per node.
type Directives struct {
	fset *token.FileSet
	// byLine maps file name → line → directives on that line. A
	// directive suppresses a node on its own line or on the line
	// directly below it (the usual "comment above the statement" form).
	byLine map[string]map[int][]string
}

// NewDirectives scans the files' comments for //pfsim: directives.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], text)
			}
		}
	}
	return d
}

// Has reports whether directive name (without the //pfsim: prefix)
// annotates the node at pos: on the same line (trailing comment) or on
// the line immediately above (leading comment).
func (d *Directives) Has(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	for _, l := range [2]int{p.Line, p.Line - 1} {
		for _, text := range d.byLine[p.Filename][l] {
			if text == name || strings.HasPrefix(text, name+" ") {
				return true
			}
		}
	}
	return false
}
