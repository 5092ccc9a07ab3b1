package container

import (
	"errors"
	"testing"
)

func TestLayerDigestDeterministic(t *testing.T) {
	l1 := Layer{Files: []File{{Path: "/a", Mode: 0o644, Content: []byte("1")}, {Path: "/b", Mode: 0o644, Content: []byte("2")}}}
	l2 := Layer{Files: []File{{Path: "/b", Mode: 0o644, Content: []byte("2")}, {Path: "/a", Mode: 0o644, Content: []byte("1")}}}
	if l1.Digest() != l2.Digest() {
		t.Fatal("layer digest depends on file order")
	}
	l3 := Layer{Files: []File{{Path: "/a", Mode: 0o644, Content: []byte("X")}, {Path: "/b", Mode: 0o644, Content: []byte("2")}}}
	if l1.Digest() == l3.Digest() {
		t.Fatal("different content produced same digest")
	}
}

func TestImageDigestSensitivity(t *testing.T) {
	a := IoTGatewayImage()
	b := IoTGatewayImage()
	if a.Digest() != b.Digest() {
		t.Fatal("identical images have different digests")
	}
	b.Config.Capabilities = []string{"CAP_SYS_ADMIN"}
	if a.Digest() == b.Digest() {
		t.Fatal("capability change did not change digest")
	}
}

// TestImageDigestCoversFullManifest pins that the digest binds every
// scanner input: the dependency manifest (the SCA gate's subject), the
// environment (LD_PRELOAD-style injection), and the REST flag (DAST
// eligibility). An omission here would let a re-pushed variant reuse the
// clean image's signature and cached admission verdict unscanned.
func TestImageDigestCoversFullManifest(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Image)
	}{
		{"added dependency", func(i *Image) {
			i.Dependencies = append(i.Dependencies, Dependency{Name: "log4j", Version: "2.14.0", Language: "java", Direct: true, Reachable: true})
		}},
		{"dependency version change", func(i *Image) {
			i.Dependencies[0].Version = i.Dependencies[0].Version + ".1"
		}},
		{"dependency reachability flip", func(i *Image) {
			i.Dependencies[0].Reachable = !i.Dependencies[0].Reachable
		}},
		{"env injection", func(i *Image) {
			i.Config.Env = append(i.Config.Env, "LD_PRELOAD=/tmp/evil.so")
		}},
		{"rest flag flip", func(i *Image) {
			i.Config.HasRESTAPI = !i.Config.HasRESTAPI
		}},
	}
	for _, m := range mutations {
		a, b := AnalyticsImage(), AnalyticsImage()
		m.mut(b)
		if a.Digest() == b.Digest() {
			t.Errorf("%s did not change the digest", m.name)
		}
	}
}

// TestImageDigestFieldBoundaries proves the digest encoding is injective
// across adjacent slice fields: moving an element from one field into the
// next must change the digest, even when the flat sequence of
// length-delimited elements stays identical (the first two pairs). The
// digest keys the admission clean-verdict cache and binds publisher
// signatures, so any such collision lets a config-privileged variant of
// a clean image impersonate it.
func TestImageDigestFieldBoundaries(t *testing.T) {
	base := func() *Image { return &Image{Name: "t", Tag: "1"} }
	pairs := []struct {
		name string
		a, b *Image
	}{
		{
			name: "entrypoint arg vs user+capability",
			a: func() *Image {
				i := base()
				i.Config = Config{Entrypoint: []string{"/bin/app", "root"}, User: "CAP_SYS_ADMIN"}
				return i
			}(),
			b: func() *Image {
				i := base()
				i.Config = Config{Entrypoint: []string{"/bin/app"}, User: "root", Capabilities: []string{"CAP_SYS_ADMIN"}}
				return i
			}(),
		},
		{
			name: "layer digest vs entrypoint element",
			a: func() *Image {
				i := base()
				i.Layers = []Layer{{}}
				return i
			}(),
			b: func() *Image {
				i := base()
				i.Config = Config{Entrypoint: []string{Layer{}.Digest()}}
				return i
			}(),
		},
		{
			name: "user vs first capability",
			a: func() *Image {
				i := base()
				i.Config = Config{User: "root", Capabilities: []string{"CAP_NET_ADMIN"}}
				return i
			}(),
			b: func() *Image {
				i := base()
				i.Config = Config{User: "", Capabilities: []string{"root", "CAP_NET_ADMIN"}}
				return i
			}(),
		},
	}
	for _, p := range pairs {
		if p.a.Digest() == p.b.Digest() {
			t.Errorf("%s: distinct images collide (digest %s)", p.name, p.a.Digest())
		}
	}
}

func TestFlattenLaterLayersWin(t *testing.T) {
	img := &Image{
		Name: "t", Tag: "1",
		Layers: []Layer{
			{Files: []File{{Path: "/app/cfg", Content: []byte("v1")}}},
			{Files: []File{{Path: "/app/cfg", Content: []byte("v2")}, {Path: "/app/new", Content: []byte("n")}}},
		},
	}
	fs := img.Flatten()
	if string(fs["/app/cfg"].Content) != "v2" {
		t.Fatalf("flatten = %q, want v2", fs["/app/cfg"].Content)
	}
	if len(fs) != 2 {
		t.Fatalf("flatten size = %d, want 2", len(fs))
	}
}

func TestConfigHelpers(t *testing.T) {
	miner := CryptominerImage()
	if !miner.Config.RunsAsRoot() {
		t.Fatal("miner fixture should run as root")
	}
	if !miner.Config.HasCapability("cap_sys_admin") {
		t.Fatal("case-insensitive capability lookup failed")
	}
	analytics := AnalyticsImage()
	if analytics.Config.RunsAsRoot() {
		t.Fatal("analytics fixture should be non-root")
	}
	if analytics.Config.HasCapability("CAP_SYS_ADMIN") {
		t.Fatal("analytics fixture should have no extra caps")
	}
}

func TestRegistryPushPull(t *testing.T) {
	r := NewRegistry()
	img := AnalyticsImage()
	r.Push(img, nil)
	got, err := r.Pull(img.Ref())
	if err != nil || got.Ref() != "acme/analytics:2.0.1" {
		t.Fatalf("Pull = %v, %v", got, err)
	}
	if _, err := r.Pull("missing:1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := len(r.List()); got != 1 {
		t.Fatalf("List = %d, want 1", got)
	}
}

func TestPullVerifiedRequiresSignature(t *testing.T) {
	r := NewRegistry()
	img := AnalyticsImage()
	r.Push(img, nil)
	if _, err := r.PullVerified(img.Ref()); !errors.Is(err, ErrUnsigned) {
		t.Fatalf("err = %v, want ErrUnsigned", err)
	}
}

func TestPullVerifiedHappyPath(t *testing.T) {
	r := NewRegistry()
	pub, err := NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	r.TrustPublisher("acme", pub.PublicKey())
	img := AnalyticsImage()
	sig := pub.Sign(img)
	r.Push(img, &sig)
	if _, err := r.PullVerified(img.Ref()); err != nil {
		t.Fatalf("PullVerified: %v", err)
	}
}

func TestPullVerifiedRejectsUnknownPublisher(t *testing.T) {
	r := NewRegistry()
	pub, err := NewPublisher("shady")
	if err != nil {
		t.Fatal(err)
	}
	img := CryptominerImage()
	sig := pub.Sign(img)
	r.Push(img, &sig) // signed, but publisher is not trusted
	if _, err := r.PullVerified(img.Ref()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestPullVerifiedRejectsTamperedImage(t *testing.T) {
	r := NewRegistry()
	pub, err := NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	r.TrustPublisher("acme", pub.PublicKey())
	img := AnalyticsImage()
	sig := pub.Sign(img)
	// Image altered after signing (e.g. registry compromise).
	img.Layers = append(img.Layers, Layer{Files: []File{{Path: "/backdoor", Content: []byte("evil")}}})
	r.Push(img, &sig)
	if _, err := r.PullVerified(img.Ref()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestFixtureShapes(t *testing.T) {
	if !IoTGatewayImage().Config.HasRESTAPI {
		t.Fatal("iot-gateway must expose REST (fuzzable)")
	}
	if MLInferenceImage().Config.HasRESTAPI {
		t.Fatal("ml-inference must not expose REST (fuzz infeasible)")
	}
	var reachable, unreachable int
	for _, d := range IoTGatewayImage().Dependencies {
		if d.Reachable {
			reachable++
		} else {
			unreachable++
		}
	}
	if reachable == 0 || unreachable == 0 {
		t.Fatal("iot-gateway needs both reachable and unreachable deps for Lesson 7")
	}
}
