package integration

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceSeams are the exported functions under internal/ and api/ that
// no non-test code references and that stay anyway: each lets a test
// drive or observe a live path. Any other exported function that only
// tests reach is a capability nothing runs, and TestNoTestOnlySurface
// fails on it. Keys are "pkg.Func" or "pkg.Type.Method".
var surfaceSeams = map[string]string{
	"genio/api.WithVerifierClock":                         "injects the clock behind the session and signature skew checks",
	"genio/api/client.WithBackoff":                        "injects the retry backoff so tests do not sleep",
	"genio/api/client.HTTP.AttachONU":                     "client side of the live POST /v2/onus route",
	"genio/api/client.HTTP.Deployment":                    "client side of the live GET /v2/deployments/{id} route",
	"genio/api/client.Deployment.ID":                      "names the future the live async deploy route returns",
	"genio/internal/core.Platform.RecordIncident":         "feeds the incident ledger the live path writes",
	"genio/internal/core.Platform.FlushContext":           "waits for spine delivery before a test reads it",
	"genio/internal/core.Platform.SnapshotNow":            "forces the snapshot the WAL compactor takes",
	"genio/internal/federation.Federation.Region":         "reads the region a live AddCluster recorded",
	"genio/internal/macsec.SecY.Stats":                    "reads the live SecY's frame counters",
	"genio/internal/orchestrator.Cluster.SharedVMTenants": "reads which tenants share a VM on the live placement",
	"genio/internal/orchestrator.Cluster.VerdictKeys":     "reads the live admission verdict cache",
	"genio/internal/pki.WithClock":                        "injects the clock behind certificate validity",
	"genio/internal/pki.WithRand":                         "injects the key source so certificates replay",
	"genio/internal/pki.WithValidity":                     "injects the certificate validity period",
	"genio/internal/pki.CA.Revoke":                        "drives Verify's ErrRevoked until revocation has a verb",
	"genio/internal/pon.KeyRing.Epoch":                    "reads the key epoch the live OLT rotates",
	"genio/internal/pon.OLT.Mode":                         "reads the live OLT's encryption mode",
	"genio/internal/pon.OLT.SendOMCI":                     "positive control of the OMCI forgery check",
	"genio/internal/pon.OLT.Stats":                        "reads the live OLT's frame counters",
	"genio/internal/pon.ONU.OMCILog":                      "reads the OMCI messages the live ONU accepted",
	"genio/internal/pon.ONU.Rejected":                     "reads the frames the live ONU refused",
	"genio/internal/sandbox.Enforcer.Counts":              "reads the live enforcer's verdict counts",
	"genio/internal/secureboot.Firmware.RevokeImage":      "drives Boot's dbx check until revocation has a verb",
	"genio/internal/storage.Volume.Write":                 "writes through the volume the live TPM unlock opens",
	"genio/internal/storage.Volume.Read":                  "reads through the volume the live TPM unlock opens",
	"genio/internal/storage.Volume.RawData":               "reads the ciphertext a locked volume keeps",
}

// listedPackage is the part of `go list -json` this test reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// TestNoTestOnlySurface type-checks the non-test code of both modules
// (this one and benchmark/) and fails when an exported function or
// method under internal/ or api/ is referenced by none of it and is not
// a listed seam. A method counts as referenced when its type satisfies
// an interface that declares it, since a call through the interface
// names no method.
func TestNoTestOnlySurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	var universe []*types.Package
	for _, dir := range []string{root, filepath.Join(root, "benchmark")} {
		pkgs := goList(t, dir)
		exports := map[string]string{}
		for _, p := range pkgs {
			exports[p.ImportPath] = p.Export
		}
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, errors.New("no export data for " + path)
			}
			return os.Open(exports[path])
		})
		for _, p := range pkgs {
			if len(p.GoFiles) == 0 {
				continue
			}
			if !p.Standard {
				collectUses(t, fset, imp, p, used)
			}
			// Declarations and interfaces come from one module's export
			// data, so every type in them is the same object.
			if dir == root {
				pkg, err := imp.Import(p.ImportPath)
				if err != nil {
					t.Fatal(err)
				}
				universe = append(universe, pkg)
			}
		}
	}

	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces := []*types.Interface{errorType}
	for _, pkg := range universe {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	satisfies := func(named *types.Named, method string) bool {
		// errors.Is, errors.As and errors.Unwrap call these on any error
		// through interfaces they declare inline.
		if method == "Is" || method == "As" || method == "Unwrap" {
			if types.Implements(named, errorType) || types.Implements(types.NewPointer(named), errorType) {
				return true
			}
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() != method {
					continue
				}
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					return true
				}
			}
		}
		return false
	}

	unused := map[string]bool{}
	for _, pkg := range universe {
		path := pkg.Path()
		if !strings.HasPrefix(path, "genio/internal/") && path != "genio/api" && !strings.HasPrefix(path, "genio/api/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[key(obj)] {
					unused[key(obj)] = true
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || !obj.Exported() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[key(m)] && !satisfies(named, m.Name()) {
						unused[key(m)] = true
					}
				}
			}
		}
	}
	for _, k := range slices.Sorted(maps.Keys(unused)) {
		if _, ok := surfaceSeams[k]; !ok {
			t.Errorf("%s is exported but only tests reach it: delete it, or list it in surfaceSeams with the live path it drives", k)
		}
	}
	for k := range surfaceSeams {
		if !unused[k] {
			t.Errorf("surfaceSeams lists %s, which non-test code now references or which no longer exists: drop the entry", k)
		}
	}
}

// goList runs `go list -deps -export -json ./...` in the module at dir.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// collectUses type-checks p's non-test files and adds the key of every
// function and method they reference to used.
func collectUses(t *testing.T, fset *token.FileSet, imp types.Importer, p listedPackage, used map[string]bool) {
	t.Helper()
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", p.ImportPath, err)
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[key(fn.Origin())] = true
		}
	}
}

// key names fn as "pkg.Func" or "pkg.Type.Method".
func key(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
