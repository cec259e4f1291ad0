package repro

// The tree's surface, checked by type. TestSurface type-checks every
// package of the module with go/types and fails on three kinds of dead
// code in internal/...: an exported name that no non-test code uses, an
// unexported top-level name or method that no non-test code uses, and
// an exported field that no non-test code sets, of a …Config struct or
// of a struct that a …Config field holds (by value, by pointer, or as
// an implementation of the field's interface type).
// TestLoc counts lines for ROADMAP's two yardsticks and holds them to
// ceilings; `make loc` prints its table.
//
// go/build's default context picks each package's files for the host,
// and one `go list -export -deps` call supplies the standard library's
// export data; benchmark/, cmd/ and examples/ count as callers. Test
// files are not loaded, so nothing a test does counts.
//
//   - A name is used when a non-test identifier resolves to it; an
//     instantiated generic method or field counts for its declaration.
//     A type's own method receivers are not uses of it.
//   - A method is also used when its name and signature match a method
//     of an interface type anywhere in the program (fmt.Stringer,
//     Detector, RateController, ...): a call may reach it through the
//     interface.
//   - A field is set by an assignment, increment or address-of that
//     resolves to it, or by a composite literal that keys it or lists
//     it. Defaulting does not count: a write inside a fill method, or
//     inside an if whose condition reads the same field.
//   - Files the host build leaves out (other platforms, other tags) and
//     assembly still count by spelling: an identifier there that does
//     not declare a name or sit in a receiver uses the package's name
//     of that spelling, a selector every method of that name, and an
//     assembly ·name the package's name.

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// surfaceKeep lists the findings that stay, each with its reason. It
// may only shrink: an entry that matches no finding fails the test.
// Keys are the package's directory under internal/, then the name, with
// the receiver's type for a method or the struct's for a field.
var surfaceKeep = map[string]string{
	"cipher.NewKey":                   "reference: the RFC 8439 vector tests build their keys with it",
	"faults/soak.DumpIfRequested":     "CI artifact hook: a failing soak test leaves its flight-recorder dump in $SOAK_FLIGHTREC_DIR",
	"otp.Conn.Acked":                  "test accessor: the OTP tests read the cumulative ACK",
	"otp.Conn.Idle":                   "test accessor: the OTP tests check a drained connection",
	"core.Sender.NextName":            "test accessor: the shedding and refusal tests check no name was spent",
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
	"udplink.LossyConn.SetDropNth":    "test oracle: the lossy-conn and path-equivalence tests drop an exact datagram pattern",
	"xcode.Codecs":                    "test oracle: the codec tests and FuzzCodecs iterate every codec",
	"xcode.SeqValue":                  "test accessor: the codec tests and FuzzCodecs build nested values",
	"xcode.Value.Equal":               "test oracle: the xcode, rpc, tracing-acceptance and integration tests and FuzzCodecs compare values through it",

	"ilp.ChecksumStage.Sum":             "test oracle: TestChecksumStageMatchesKernel and TestFusedPathEqualsLayeredPath compare the stage's checksum",
	"metrics.Snapshot.Value":            "test accessor: TestIngestWellFormed (alfstat), TestStatsMatchRegistry (core), TestConnMetrics (otp) and the metrics tests read a series through it",
	"tracing.Tracer.Events":             "test accessor: TestReleaseOrderAscending (core), TestUpdateConfigShrinkBelowBacklog (netsim) and the tracing tests read the recorded events",
	"core.Config.MaxADU":                "protocol bound: a receiver refuses a TotalLen beyond it; TestADUTooLarge, TestReceiverMemoryBounded and FuzzHandlePacket shrink it to reach it",
	"core.Config.BufferLimit":           "protocol bound: sender retention pushes back at it; TestBufferLimitEnforced shrinks it to reach it",
	"netsim.LinkConfig.DupProb":         "fault injection: TestDuplicateFragmentsIgnored, TestHostileLinkEndToEnd and netsim's TestDuplication duplicate packets",
	"netsim.LinkConfig.ReorderProb":     "fault injection: TestHostileLinkEndToEnd, TestSettledFrontierInvariants and netsim's TestReordering reorder packets",
	"netsim.LinkConfig.ReorderDelay":    "fault injection: the reordering tests set how far a reordered packet lags",
	"otp.Config.Pool":                   "test oracle: TestSendRefZeroCopy and TestSegmentReuseAfterSend count a private pool's gets and puts",
	"udplink.Config.MaxIdle":            "run length: TestBatchRoundZeroAlloc takes 27 s at the 50 ms default, under 2 s at 50 µs",
	"faults/soak.UDPConfig.ADUSizes":    "workload: BenchmarkUDPLoopback moves the 8 KiB ADUs `make split` profiles; TestUDPSoakMixed crowds the send queues with ADUs of nine sizes",
	"faults/soak.UDPConfig.FECGroup":    "workload: TestUDPSoakFEC runs sender FEC over real sockets",
	"faults/soak.UDPConfig.SubmitEvery": "workload: TestUDPSoakMixed submits faster than a loop pass; BenchmarkUDPLoopback ticks at 100 µs",
}

// The two yardsticks of ROADMAP aim 2, as ceilings that may only come
// down: non-test lines outside benchmark/, and those of the planes that
// watch the protocol.
const (
	locCeiling           = 21879
	observabilityCeiling = 3034
)

var observabilityDirs = []string{"internal/metrics", "internal/tracing", "internal/telemetry", "internal/stats"}

const modulePath = "repro"

// srcPkg is one directory's package: its host-build files type-checked,
// and the sources the host build leaves out.
type srcPkg struct {
	dir     string // slash-separated, relative to the module root
	path    string // import path
	imports []string
	files   []*ast.File // non-test files of the host build
	other   []*ast.File // non-test .go files of other platforms or tags
	asm     [][]byte    // .s files
	types   *types.Package
	info    *types.Info
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

// loadTree parses every package of the module, lets go/build's default
// context pick each one's host-build files, and type-checks those in
// dependency order. The standard library comes from the compiler's
// export data, which one `go list -export -deps` call builds or finds in
// the cache.
func loadTree(t *testing.T) []*srcPkg {
	t.Helper()
	fset := token.NewFileSet()
	byDir := map[string]*srcPkg{}
	var dirs []string
	walkTree(t, func(path, dir string, src []byte) {
		p := byDir[dir]
		if p == nil {
			bp, err := build.Default.ImportDir(dir, 0)
			var noGo *build.NoGoError
			if err != nil && !errors.As(err, &noGo) {
				t.Fatal(err)
			}
			p = &srcPkg{dir: dir, path: modulePath, imports: bp.Imports}
			if dir != "." {
				p.path += "/" + dir
			}
			byDir[dir] = p
			dirs = append(dirs, dir)
		}
		if strings.HasSuffix(path, ".s") {
			p.asm = append(p.asm, src)
			return
		}
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(path)); err != nil {
			t.Fatal(err)
		} else if ok {
			p.files = append(p.files, f)
		} else {
			p.other = append(p.other, f)
		}
	})

	std := map[string]bool{}
	for _, p := range byDir {
		for _, imp := range p.imports {
			if imp != modulePath && !strings.HasPrefix(imp, modulePath+"/") && imp != "unsafe" {
				std[imp] = true
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for imp := range std {
		args = append(args, imp)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})

	byPath := map[string]*srcPkg{}
	for _, p := range byDir {
		byPath[p.path] = p
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p := byPath[path]; p != nil {
				return p.types, nil
			}
			return gc.Import(path)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	var order []*srcPkg
	var visit func(p *srcPkg)
	visit = func(p *srcPkg) {
		if p.info != nil {
			return
		}
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		for _, imp := range p.imports {
			if q := byPath[imp]; q != nil {
				visit(q)
			}
		}
		if len(p.files) == 0 {
			return
		}
		p.types, err = conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.dir, err)
		}
		order = append(order, p)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		visit(byDir[d])
	}
	return order
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic method or field back to its
// declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// asmName matches a Go symbol an assembly file references, as ·name.
var asmName = regexp.MustCompile(`\x{00B7}(\w+)`)

// surfaceFindings returns every finding, keyed as surfaceKeep is, with
// the number of names (top-level and methods, exported or not) and of
// exported fields it judged.
func surfaceFindings(pkgs []*srcPkg) (found map[string]string, nnames, nfields int) {
	used := map[types.Object]bool{} // what a non-test identifier resolves to
	spelled := map[string]bool{}    // "dir.Name" and ".Name" spelled by sources outside the host build
	set := map[*types.Var]bool{}    // struct fields a non-test write resolves to
	var ifaces []*types.Interface   // every interface type in the program

	seen := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, q := range p.Imports() {
			scan(q)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for _, p := range pkgs {
		scan(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
		skip := map[*ast.Ident]bool{}
		for _, f := range p.files {
			declared(f, skip)
			selfUses(f, p.info, skip)
			markWrites(f, p.info, set)
		}
		for id, o := range p.info.Uses {
			if !skip[id] {
				used[origin(o)] = true
			}
		}
		for _, f := range p.other {
			imp := map[string]string{}
			for _, is := range f.Imports {
				path, _ := strconv.Unquote(is.Path.Value)
				if dir, ok := strings.CutPrefix(path, modulePath+"/"); ok {
					imp[dir[strings.LastIndex(dir, "/")+1:]] = dir
				}
			}
			skip := declared(f, map[*ast.Ident]bool{})
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imp[id.Name] != "" {
						spelled[imp[id.Name]+"."+x.Sel.Name] = true
					}
					spelled["."+x.Sel.Name] = true
				case *ast.Ident:
					if !skip[x] {
						spelled[p.dir+"."+x.Name] = true
					}
				}
				return true
			})
		}
		for _, src := range p.asm {
			for _, m := range asmName.FindAllSubmatch(src, -1) {
				spelled[p.dir+"."+string(m[1])] = true
			}
		}
	}

	// implements reports whether m's name and signature match a method
	// of some interface, through which a call may reach it.
	implements := func(m *types.Func) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if im := it.Method(i); im.Name() == m.Name() && types.Identical(im.Type(), m.Type()) {
					return true
				}
			}
		}
		return false
	}

	found = map[string]string{}
	var structs []*types.TypeName // the exported non-generic structs of internal/...
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		key := strings.TrimPrefix(p.dir, "internal/") + "."
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			nnames++
			if !used[o] && !spelled[p.dir+"."+name] {
				found[key+name] = visibility(o) + " name that no non-test code resolves to"
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				nnames++
				if !used[m] && !spelled["."+m.Name()] && !implements(m) {
					found[key+name+"."+m.Name()] = visibility(m) + " method that no non-test call resolves to and no interface carries"
				}
			}
			if _, ok := named.Underlying().(*types.Struct); ok && tn.Exported() && named.TypeParams().Len() == 0 {
				structs = append(structs, tn)
			}
		}
	}

	// The structs whose exported fields are judged: every …Config, and
	// every struct a …Config field holds, by value or pointer or as an
	// implementation of its interface type (Config.Controller: AIMD,
	// WindowedRate).
	judged := map[*types.TypeName]bool{}
	for _, tn := range structs {
		if !strings.HasSuffix(tn.Name(), "Config") {
			continue
		}
		judged[tn] = true
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			ft := st.Field(i).Type()
			if ptr, ok := ft.(*types.Pointer); ok {
				ft = ptr.Elem()
			}
			it, _ := ft.Underlying().(*types.Interface)
			for _, other := range structs {
				if other.Type() == ft || it != nil && it.NumMethods() > 0 &&
					(types.Implements(other.Type(), it) || types.Implements(types.NewPointer(other.Type()), it)) {
					judged[other] = true
				}
			}
		}
	}
	for _, tn := range structs {
		if !judged[tn] {
			continue
		}
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || f.Embedded() {
				continue
			}
			nfields++
			if !set[f] {
				found[strings.TrimPrefix(tn.Pkg().Path(), modulePath+"/internal/")+"."+tn.Name()+"."+f.Name()] =
					"field of a …Config, or of a struct one holds, that no non-test write sets but its defaulting"
			}
		}
	}
	return found, nnames, nfields
}

// visibility says whether o is exported, for a finding's text.
func visibility(o types.Object) string {
	if o.Exported() {
		return "exported"
	}
	return "unexported"
}

// declared adds to skip the identifiers of f that are not uses of a
// name: those its declarations declare, and every one in a method's
// receiver. It returns skip.
func declared(f *ast.File, skip map[*ast.Ident]bool) map[*ast.Ident]bool {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					skip[sp.Name] = true
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						skip[n] = true
					}
				}
			}
		}
	}
	return skip
}

// selfUses adds to skip every identifier in a function's body that
// resolves to that function: a recursive call is not a use. The
// standard library's export data shares the source's file set, so a
// position names one declaration.
func selfUses(f *ast.File, info *types.Info, skip map[*ast.Ident]bool) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil && origin(info.Uses[id]).Pos() == fd.Name.Pos() {
				skip[id] = true
			}
			return true
		})
	}
}

// markWrites records in set every struct field that f assigns,
// increments, takes the address of or keys in a composite literal,
// except the defaulting of a field: a write inside a fill method, or
// inside an if whose condition reads that same field.
func markWrites(f *ast.File, info *types.Info, set map[*types.Var]bool) {
	var stack []ast.Node
	field := func(sel *ast.SelectorExpr) *types.Var {
		v, _ := info.Uses[sel.Sel].(*types.Var)
		if v == nil || !v.IsField() {
			return nil
		}
		return v.Origin()
	}
	defaulting := func(v *types.Var) bool {
		for i, n := range stack {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "fill" {
					return true
				}
			case *ast.IfStmt:
				if i+1 < len(stack) && stack[i+1] == n.Body && reads(n.Cond, v, field) {
					return true
				}
			}
		}
		return false
	}
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v := field(sel); v != nil && !defaulting(v) {
				set[v] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				write(l)
			}
		case *ast.IncDecStmt:
			write(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				write(x.X)
			}
		case *ast.CompositeLit:
			st, ok := info.Types[x].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set[v.Origin()] = true
					}
				} else {
					set[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// reads reports whether e selects field v.
func reads(e ast.Expr, v *types.Var, field func(*ast.SelectorExpr) *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && field(sel) == v {
			found = true
		}
		return !found
	})
	return found
}

func TestSurface(t *testing.T) {
	start := time.Now()
	pkgs := loadTree(t)
	found, nnames, nfields := surfaceFindings(pkgs)
	t.Logf("%d packages type-checked in %v; %d names and methods and %d exported fields of …Config structs and what they hold in internal/... judged; %d surfaceKeep entries",
		len(pkgs), time.Since(start).Round(time.Millisecond), nnames, nfields, len(surfaceKeep))
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

// locLines counts one set of files: raw newline-terminated lines, as
// `wc -l` would, and code lines, those neither blank nor a `//` comment.
type locLines struct{ raw, code int }

func (l *locLines) add(o locLines) { l.raw, l.code = l.raw+o.raw, l.code+o.code }

func (l *locLines) count(src []byte) {
	for _, ln := range bytes.SplitAfter(src, []byte{'\n'}) {
		if len(ln) == 0 || ln[len(ln)-1] != '\n' {
			continue
		}
		l.raw++
		if s := bytes.TrimSpace(ln); len(s) > 0 && !bytes.HasPrefix(s, []byte("//")) {
			l.code++
		}
	}
}

// TestLoc counts the lines of .go and .s files per directory outside
// benchmark/, raw and code beside each other, since deleting a comment
// or a blank line simplifies nothing; the ceilings gate the raw counts.
// An assembly file counts as non-test code. `go test -run TestLoc -v .`
// prints the table.
func TestLoc(t *testing.T) {
	code, test := map[string]*locLines{}, map[string]*locLines{}
	var dirs []string
	walkTree(t, func(path, dir string, src []byte) {
		if dir == "benchmark" || strings.HasPrefix(dir, "benchmark/") {
			return
		}
		if _, ok := code[dir]; !ok {
			dirs = append(dirs, dir)
			code[dir], test[dir] = &locLines{}, &locLines{}
		}
		if strings.HasSuffix(path, "_test.go") {
			test[dir].count(src)
		} else {
			code[dir].count(src)
		}
	})
	sort.Strings(dirs)
	var b strings.Builder
	var total, totalTest, obs locLines
	row := func(name string, c, t locLines) {
		fmt.Fprintf(&b, "%-28s %8d %6d %8d %6d\n", name, c.raw, c.code, t.raw, t.code)
	}
	fmt.Fprintf(&b, "%-28s %8s %6s %8s %6s\n", "package", "non-test", "code", "test", "code")
	for _, d := range dirs {
		row(d, *code[d], *test[d])
		total.add(*code[d])
		totalTest.add(*test[d])
	}
	for _, d := range observabilityDirs {
		obs.add(*code[d])
	}
	row("all outside benchmark/", total, totalTest)
	core := code["internal/core"]
	fmt.Fprintf(&b, "metrics+tracing+telemetry+stats %d (code %d) against core %d (code %d)\n", obs.raw, obs.code, core.raw, core.code)
	if testing.Verbose() {
		fmt.Print(b.String())
	}
	if total.raw > locCeiling {
		t.Errorf("%d non-test lines outside benchmark/, above the ceiling of %d", total.raw, locCeiling)
	}
	if obs.raw > observabilityCeiling {
		t.Errorf("%d non-test lines in %v, above the ceiling of %d", obs.raw, observabilityDirs, observabilityCeiling)
	}
}
