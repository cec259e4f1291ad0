package repro

// The tree's surface, checked by syntax alone. TestSurface parses every
// .go file with go/parser and fails on two kinds of dead surface in
// internal/...: an exported name that no non-test code names, and an
// exported field of a …Config struct that nothing sets except the
// struct's own fill. TestLoc counts lines for ROADMAP's two yardsticks
// and holds them to ceilings; `make loc` prints its table.
//
// Where syntax cannot tell, a name counts as used: a method is used when
// any non-test selector in the tree, or any interface, carries its name;
// a field is set when any assignment, increment or address-of in the
// tree has a selector of its name, or an untyped composite literal a key
// of its name; and any identifier in a package's own code counts as a
// use of that package's name of the same spelling.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceKeep lists the findings that stay, each with its reason. It
// may only shrink: an entry that matches no finding fails the test.
// Keys are the package's directory under internal/, then the name, with
// the receiver's type for a method or the struct's for a field.
var surfaceKeep = map[string]string{
	"cipher.NewKey":                   "reference: the RFC 8439 vector tests build their keys with it",
	"scramble.Apply":                  "reference: the scramble tests compare the keystream against it",
	"faults/soak.DumpIfRequested":     "CI artifact hook: a failing soak test leaves its flight-recorder dump in $SOAK_FLIGHTREC_DIR",
	"otp.Conn.RTO":                    "test accessor: the retransmission-timer tests read it",
	"otp.Conn.SRTT":                   "test accessor: the RTT-estimator tests read it",
	"otp.Conn.Acked":                  "test accessor: the OTP tests read the cumulative ACK",
	"otp.Conn.Idle":                   "test accessor: the OTP tests check a drained connection",
	"core.Sharded.Deliveries":         "test oracle: the sharded determinism tests compare delivery logs",
	"core.Sender.NextName":            "test accessor: the shedding and refusal tests check no name was spent",
	"core.Flow.ScheduleSend":          "test accessor: the shard tests and ExampleSharded submit through it",
	"core.Sender.SetRate":             "paper mechanism: out-of-band rate control (§3) that Config.RateBps documents; the pacer tests drive it",
	"filetx.PlanConverted":            "paper mechanism named in README: ADUs planned in the receiver's converted file",
	"filetx.Writer.Written":           "test accessor: the filetx and integration tests read the bytes written",
	"atm.Reassembler.PendingMessages": "test accessor: the AAL tests check no partial message is left behind",
	"buf.Ref.Headroom":                "test accessor: the buf tests check Prepend's headroom bookkeeping",
	"layered.Stack.Codec":             "test accessor: the layered-stack tests check the negotiated codec",
	"relay.Relay.StoredBytes":         "test accessor: the relay tests check the custody store drains",
	"session.Initiator.Established":   "test accessor: the session tests check the handshake outcome",
	"session.Responder.Result":        "test accessor: the session tests check the negotiated result",
	"session.ReasonRefused":           "test oracle: the session tests encode and describe this REJECT code",
	"session.ReasonBadParams":         "test oracle: the session tests screen offers with this REJECT code",
	"sim.Scheduler.RunFor":            "test accessor: the core and sim tests advance the clock by a span",
	"stats.Sample.N":                  "test accessor: the stats tests and Example read the sample count",
	"udplink.LossyConn.SetDropNth":    "test oracle: the lossy-conn and path-equivalence tests drop an exact datagram pattern",
	"xcode.Codecs":                    "test oracle: the codec tests and FuzzCodecs iterate every codec",
	"xcode.Roundtrip":                 "test oracle: the codec tests and FuzzCodecs encode and decode through it",
	"xcode.SeqValue":                  "test accessor: the codec tests and FuzzCodecs build nested values",
}

// The two yardsticks of ROADMAP aim 2, as ceilings that may only come
// down: non-test lines outside benchmark/, and those of the planes that
// watch the protocol.
const (
	locCeiling           = 22728
	observabilityCeiling = 3461
)

var observabilityDirs = []string{"internal/metrics", "internal/tracing", "internal/telemetry", "internal/stats"}

const modulePath = "repro"

type srcFile struct {
	dir  string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

// walkTree calls fn for every .go and .s file under the module root,
// skipping testdata and dot directories.
func walkTree(t *testing.T, fn func(path, dir string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".s") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), filepath.ToSlash(filepath.Dir(path)), src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func parseTree(t *testing.T) []*srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []*srcFile
	walkTree(t, func(path, dir string, src []byte) {
		if !strings.HasSuffix(path, ".go") {
			return
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, &srcFile{dir: dir, test: strings.HasSuffix(path, "_test.go"), ast: f})
	})
	return files
}

// imports maps each of f's import names to the imported directory, for
// the module's own packages.
func imports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		dir, ok := strings.CutPrefix(p, modulePath+"/")
		if !ok {
			continue
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if is.Name != nil {
			name = is.Name.Name
		}
		m[name] = dir
	}
	return m
}

// recvType names a method's receiver type.
func recvType(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// typeKey resolves a composite literal's type to "dir.Name", or "".
func typeKey(e ast.Expr, dir string, imp map[string]string) string {
	switch x := e.(type) {
	case *ast.Ident:
		return dir + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && imp[id.Name] != "" {
			return imp[id.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

// surfaceFindings returns every finding, keyed as surfaceKeep is, and
// the number of exported …Config fields in internal/....
func surfaceFindings(files []*srcFile) (map[string]string, int) {
	type decl struct{ key, what string }
	var decls []decl                 // exported package-level names and methods in internal/...
	notUses := map[*ast.Ident]bool{} // declaring, field and selector identifiers
	used := map[string]bool{}        // "dir.Name" named by non-test code
	selected := map[string]bool{}    // selector and interface-method names in non-test code

	fields := map[string][]string{} // "dir.Type" of each …Config struct -> its exported fields
	set := map[string]bool{}        // "dir.Type.Field" (or "dir.Type.*") keyed in a typed literal
	setByName := map[string]bool{}  // field names set through a selector or an untyped literal

	nfields := 0
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") || f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				notUses[d.Name] = true
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{f.dir + "." + d.Name.Name, "func"})
				} else if rt := recvType(d); rt != "" {
					decls = append(decls, decl{f.dir + "." + rt + "." + d.Name.Name, "method"})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						notUses[s.Name] = true
						if s.Name.IsExported() {
							decls = append(decls, decl{f.dir + "." + s.Name.Name, "type"})
						}
						st, ok := s.Type.(*ast.StructType)
						if !ok || !strings.HasSuffix(s.Name.Name, "Config") {
							continue
						}
						k := f.dir + "." + s.Name.Name
						for _, fl := range st.Fields.List {
							for _, n := range fl.Names {
								if n.IsExported() {
									fields[k] = append(fields[k], n.Name)
									nfields++
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							notUses[n] = true
							if n.IsExported() {
								decls = append(decls, decl{f.dir + "." + n.Name, "value"})
							}
						}
					}
				}
			}
		}
	}

	for _, f := range files {
		imp := imports(f.ast)
		var fill *ast.FuncDecl // the fill method being walked, if any
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if fill != nil && n != nil && n.Pos() >= fill.End() {
				fill = nil
			}
			markSet := func(e ast.Expr) {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return
				}
				if id, ok := sel.X.(*ast.Ident); ok && fill != nil && id.Name == fill.Recv.List[0].Names[0].Name {
					return // the field's own default
				}
				setByName[sel.Sel.Name] = true
			}
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil && x.Name.Name == "fill" && len(x.Recv.List[0].Names) == 1 {
					fill = x
				}
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					markSet(l)
				}
			case *ast.IncDecStmt:
				markSet(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					markSet(x.X)
				}
			case *ast.CompositeLit:
				tk := ""
				if x.Type != nil {
					tk = typeKey(x.Type, f.dir, imp)
				}
				for _, el := range x.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					switch {
					case !ok && tk != "":
						set[tk+".*"] = true
					case !ok:
					case tk != "":
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[tk+"."+id.Name] = true
						}
					case x.Type == nil:
						if id, ok := kv.Key.(*ast.Ident); ok {
							setByName[id.Name] = true
						}
					}
				}
			}
			if f.test {
				return true
			}
			// Parents come before children, so a selector's or a struct's
			// identifiers are marked before they are visited.
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imp[id.Name] != "" {
					used[imp[id.Name]+"."+x.Sel.Name] = true
				} else {
					selected[x.Sel.Name] = true
				}
				notUses[x.Sel] = true
			case *ast.StructType:
				for _, fl := range x.Fields.List {
					for _, nm := range fl.Names {
						notUses[nm] = true
					}
				}
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, nm := range m.Names {
						selected[nm.Name] = true
						notUses[nm] = true
					}
				}
			case *ast.Ident:
				if !notUses[x] {
					used[f.dir+"."+x.Name] = true
				}
			}
			return true
		})
	}

	out := map[string]string{}
	for _, d := range decls {
		key := strings.TrimPrefix(d.key, "internal/")
		if d.what == "method" {
			if !selected[key[strings.LastIndex(key, ".")+1:]] {
				out[key] = "exported method that no non-test selector names"
			}
		} else if !used[d.key] {
			out[key] = "exported " + d.what + " that no non-test code names"
		}
	}
	for k, fs := range fields {
		for _, fl := range fs {
			if !set[k+"."+fl] && !set[k+".*"] && !setByName[fl] {
				out[strings.TrimPrefix(k, "internal/")+"."+fl] = "Config field that nothing sets but its fill"
			}
		}
	}
	return out, nfields
}

func TestSurface(t *testing.T) {
	found, nfields := surfaceFindings(parseTree(t))
	t.Logf("%d exported …Config fields in internal/...", nfields)
	var keys []string
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := surfaceKeep[k]; !ok {
			t.Errorf("%s: %s; delete it, or keep it in surfaceKeep with a reason", k, found[k])
		}
	}
	for k := range surfaceKeep {
		if _, ok := found[k]; !ok {
			t.Errorf("surfaceKeep lists %s, which is no longer a finding; delete the entry", k)
		}
	}
}

// TestLoc counts newline-terminated lines of .go and .s files per
// directory outside benchmark/, as `wc -l` would; an assembly file
// counts as non-test code. `go test -run TestLoc -v .` prints the table.
func TestLoc(t *testing.T) {
	code, test := map[string]int{}, map[string]int{}
	var dirs []string
	walkTree(t, func(path, dir string, src []byte) {
		if dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") {
			return
		}
		if _, ok := code[dir]; !ok {
			dirs = append(dirs, dir)
			code[dir] = 0
		}
		n := bytes.Count(src, []byte{'\n'})
		if strings.HasSuffix(path, "_test.go") {
			test[dir] += n
		} else {
			code[dir] += n
		}
	})
	sort.Strings(dirs)
	var b strings.Builder
	total, totalTest, obs := 0, 0, 0
	fmt.Fprintf(&b, "%-28s %8s %8s\n", "package", "non-test", "test")
	for _, d := range dirs {
		fmt.Fprintf(&b, "%-28s %8d %8d\n", d, code[d], test[d])
		total += code[d]
		totalTest += test[d]
	}
	for _, d := range observabilityDirs {
		obs += code[d]
	}
	fmt.Fprintf(&b, "%-28s %8d %8d\n", "all outside benchmark/", total, totalTest)
	fmt.Fprintf(&b, "metrics+tracing+telemetry+stats %d against core %d\n", obs, code["internal/core"])
	if testing.Verbose() {
		fmt.Print(b.String())
	}
	if total > locCeiling {
		t.Errorf("%d non-test lines outside benchmark/, above the ceiling of %d", total, locCeiling)
	}
	if obs > observabilityCeiling {
		t.Errorf("%d non-test lines in %v, above the ceiling of %d", obs, observabilityDirs, observabilityCeiling)
	}
}
