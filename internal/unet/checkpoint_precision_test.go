package unet

import (
	"bytes"
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"seaice/internal/record"
)

// Checkpoints of Config{Depth: 1, BaseChannels: 1, InChannels: 3,
// Classes: 2, Seed: 31} in the formats before the model record, written
// by the gob-based encoders they replace: the bare gob with no header,
// the versioned float format (version 2) and the quantized format
// (version 3, calibrated on calibTiles(2, 4, 3)). Base64, one line per
// 76 characters.
const (
	legacyBareCheckpoint = `
JH8DAQL/gAABAgEGQ29uZmlnAf+CAAEHV2VpZ2h0cwH/hgAAAGP/gQMBAQZDb25maWcB/4IAAQYB
BURlcHRoAQQAAQxCYXNlQ2hhbm5lbHMBBAABCkluQ2hhbm5lbHMBBAABB0NsYXNzZXMBBAABC0Ry
b3BvdXRSYXRlAQgAAQRTZWVkAQYAAAAl/4UEAQEUbWFwW3N0cmluZ11bXWZsb2F0NjQB/4YAAQwB
/4QAAAz/gwIBAv+EAAEIAAD+BbP/gAEBAgECAQYBBAIfAAEQD2VuYzAuY29udjEuYmlhcwEAF2Jv
dHRsZW5lY2suY29udjEud2VpZ2h0EviHZu0av4jCv/h9kAgvxerTP/hsjw4wrivtP/jQ5bFWDHfQ
P/js6lTbE8Lfv/gIxXjuxjfsP/jiNGAKSrXNP/j45+5BXKPbP/hpEvRVM9vZv/hQfetn3i/kP/iF
bnqSOpfKv/heJzRP/pfXP/heiBtuotnVP/i/xFc6OQzWP/ggBSfI0SvBP/j0la1Q2L3ZP/i+zpgb
SwCjP/h3H9hkMnPePwpmaW5hbC5iaWFzAgAAEWVuYzAuY29udjIud2VpZ2h0CfintOrL73C+P/go
wrvmNWfgP/i2AaUTIhHmv/hjZFiSEMrBv/i1ruyB6ePRP/iMwGsl6BrhP/iPjbskdnm0v/gtG+BW
Av+0v/hRXqZK9A/gPxVib3R0bGVuZWNrLmNvbnYxLmJpYXMCAAAVYm90dGxlbmVjay5jb252Mi5i
aWFzAgAACHVwMC5iaWFzAQAMZmluYWwud2VpZ2h0Avj4gicGhlrzP/iItn82En/tPxFlbmMwLmNv
bnYxLndlaWdodBv4Gpnt/Wx/1D/49LzzAw2v2T/4Xr9Ugj20sD/42CyhEo2m3b/4hR0BGpiJxz/4
/8AXzB8Xor/4A7psCkyF1T/4lM92pd7j0b/4HoEAmBpk3j/4PHe5rkaMsz/4B0zwTjSD2L/4DQd5
ZEbG0b/4IjnWbo5rnb/4l/MVNJ2n17/4oEQUv0zhyb/4iBpVjJ1bpb/4riMhQMjrwL/46ukqV161
lj/4N+R8Mo8nrT/4fyv5U0v60T/4xnfS/gsIYj/4g8mBrtg35j/4VEzxa26Str/40g2VAbrK1r/4
Re4djwck4D/4Go2sAYl4w7/4VdTfTwl10D8KdXAwLndlaWdodAj4BxpaT9V43r/4y/iXoe846T/4
kVoTkr8y8T/4q12+xN1Auz/4b1dTZ14p8z/4i8ESSh1fo7/4KGiJJ2631b/41xhsoDfgnL8RZGVj
MC5jb252MS53ZWlnaHQS+HmOQEd0Xt4/+I6S68DAqPE/+Gw7na2gatM/+KjDvUik2c8/+LDIX7aw
lpC/+AmAsiazrOI/+P4yeRoWj5A/+PT86B3Fnsg/+KqK6I0NW9w/+JzKFbkP8MQ/+HAb9D0bxNQ/
+DylfiyoM5c/+IzZknOgZr+/+NQ35fKLDdi/+DKDzOobg9Q/+AV4BY6X5Ma/+J79ckZanXS/+A69
9Le408S/D2RlYzAuY29udjEuYmlhcwEAEWRlYzAuY29udjIud2VpZ2h0Cfj55LwUPCjZv/i5r3PK
gBPRP/gczIl8P22wv/h2uEs8slHfv/iKI6fxjY3Gv/g4sAS5ys31P/hRllgrGTbIP/gotvUMVnDF
v/gPKA0MV1Plvw9kZWMwLmNvbnYyLmJpYXMBAA9lbmMwLmNvbnYyLmJpYXMBABdib3R0bGVuZWNr
LmNvbnYyLndlaWdodCT4ikGnyRta2j/4OZ4FSOof0r/4vDB+K/Dr3D/48IKxzDFkzj/4V0QhvbCY
0T/4MbXK+h/WxT/4CXFNQ/ysmL/4BnyPj8RsyD/4TyO7msNr4b/4aINwCaxWwT/4cqHG82GZzD/4
HWpvebtuyb/4KeZuJElD5r/4SX5c8SIIxz/4/XTi9TYWv7/4BfmyNC43fr/4uAAvCtBq4j/4dWce
Stqptr/4wnRthMGSw7/40DFv/5AxqD/4zoa2P4aruT/4jlX0wIi+yz/4QUr2ipqPeb/4c5vvNFEU
0D/4MH05s5NXwr/4nbQNleJXnL/4TdUEPXyRfr/4Vq12O13Pu7/4fWT9lJwQd7/4VEyvN6Hgzz/4
f+L8LGJr0j/4IKhQ7YZn1D/4NXzjZop5tb/43F1IvGS5tz/4DJF+mO4SxD/4LHu+7x1K2D8A
`
	legacyV2Checkpoint = `
U0VBSUNFLVVORVQtQ0tQVAJB/4cDAQEMY2hlY2twb2ludFYyAf+IAAEDAQlQcmVjaXNpb24BDAAB
BkNvbmZpZwH/ggABB1dlaWdodHMB/4YAAABj/4EDAQEGQ29uZmlnAf+CAAEGAQVEZXB0aAEEAAEM
QmFzZUNoYW5uZWxzAQQAAQpJbkNoYW5uZWxzAQQAAQdDbGFzc2VzAQQAAQtEcm9wb3V0UmF0ZQEI
AAEEU2VlZAEGAAAAJf+FBAEBFG1hcFtzdHJpbmddW11mbG9hdDY0Af+GAAEMAf+EAAAM/4MCAQL/
hAABCAAA/gW8/4gBB2Zsb2F0NjQBAQIBAgEGAQQCHwABEBFlbmMwLmNvbnYxLndlaWdodBv4Gpnt
/Wx/1D/49LzzAw2v2T/4Xr9Ugj20sD/42CyhEo2m3b/4hR0BGpiJxz/4/8AXzB8Xor/4A7psCkyF
1T/4lM92pd7j0b/4HoEAmBpk3j/4PHe5rkaMsz/4B0zwTjSD2L/4DQd5ZEbG0b/4IjnWbo5rnb/4
l/MVNJ2n17/4oEQUv0zhyb/4iBpVjJ1bpb/4riMhQMjrwL/46ukqV161lj/4N+R8Mo8nrT/4fyv5
U0v60T/4xnfS/gsIYj/4g8mBrtg35j/4VEzxa26Str/40g2VAbrK1r/4Re4djwck4D/4Go2sAYl4
w7/4VdTfTwl10D8PZW5jMC5jb252Mi5iaWFzAQAXYm90dGxlbmVjay5jb252Mi53ZWlnaHQk+IpB
p8kbWto/+DmeBUjqH9K/+Lwwfivw69w/+PCCscwxZM4/+FdEIb2wmNE/+DG1yvof1sU/+AlxTUP8
rJi/+AZ8j4/EbMg/+E8ju5rDa+G/+GiDcAmsVsE/+HKhxvNhmcw/+B1qb3m7bsm/+CnmbiRJQ+a/
+El+XPEiCMc/+P104vU2Fr+/+AX5sjQuN36/+LgALwrQauI/+HVnHkraqba/+MJ0bYTBksO/+NAx
b/+QMag/+M6Gtj+Gq7k/+I5V9MCIvss/+EFK9oqaj3m/+HOb7zRRFNA/+DB9ObOTV8K/+J20DZXi
V5y/+E3VBD18kX6/+Fatdjtdz7u/+H1k/ZScEHe/+FRMrzeh4M8/+H/i/Cxia9I/+CCoUO2GZ9Q/
+DV842aKebW/+NxdSLxkubc/+AyRfpjuEsQ/+Cx7vu8dStg/FWJvdHRsZW5lY2suY29udjIuYmlh
cwIAAA9kZWMwLmNvbnYxLmJpYXMBAA9kZWMwLmNvbnYyLmJpYXMBABFlbmMwLmNvbnYyLndlaWdo
dAn4p7Tqy+9wvj/4KMK75jVn4D/4tgGlEyIR5r/4Y2RYkhDKwb/4ta7sgenj0T/4jMBrJega4T/4
j427JHZ5tL/4LRvgVgL/tL/4UV6mSvQP4D8XYm90dGxlbmVjay5jb252MS53ZWlnaHQS+Idm7Rq/
iMK/+H2QCC/F6tM/+GyPDjCuK+0/+NDlsVYMd9A/+OzqVNsTwt+/+AjFeO7GN+w/+OI0YApKtc0/
+Pjn7kFco9s/+GkS9FUz29m/+FB962feL+Q/+IVuepI6l8q/+F4nNE/+l9c/+F6IG26i2dU/+L/E
Vzo5DNY/+CAFJ8jRK8E/+PSVrVDYvdk/+L7OmBtLAKM/+Hcf2GQyc94/FWJvdHRsZW5lY2suY29u
djEuYmlhcwIAAAp1cDAud2VpZ2h0CPgHGlpP1Xjev/jL+Jeh7zjpP/iRWhOSvzLxP/irXb7E3UC7
P/hvV1NnXinzP/iLwRJKHV+jv/goaIknbrfVv/jXGGygN+CcvxFkZWMwLmNvbnYxLndlaWdodBL4
eY5AR3Re3j/4jpLrwMCo8T/4bDudraBq0z/4qMO9SKTZzz/4sMhftrCWkL/4CYCyJrOs4j/4/jJ5
GhaPkD/49PzoHcWeyD/4qorojQ1b3D/4nMoVuQ/wxD/4cBv0PRvE1D/4PKV+LKgzlz/4jNmSc6Bm
v7/41Dfl8osN2L/4MoPM6huD1D/4BXgFjpfkxr/4nv1yRlqddL/4Dr30t7jTxL8PZW5jMC5jb252
MS5iaWFzAQAMZmluYWwud2VpZ2h0Avj4gicGhlrzP/iItn82En/tPwpmaW5hbC5iaWFzAgAACHVw
MC5iaWFzAQARZGVjMC5jb252Mi53ZWlnaHQJ+PnkvBQ8KNm/+Lmvc8qAE9E/+BzMiXw/bbC/+Ha4
SzyyUd+/+Iojp/GNjca/+DiwBLnKzfU/+FGWWCsZNsg/+Ci29QxWcMW/+A8oDQxXU+W/AA==
`
	legacyV3Checkpoint = `
U0VBSUNFLVVORVQtQ0tQVAM9/4kDAQEMY2hlY2twb2ludFYzAf+KAAEDAQZDb25maWcB/4IAAQdX
ZWlnaHRzAf+GAAEEQWN0cwH/jgAAAGP/gQMBAQZDb25maWcB/4IAAQYBBURlcHRoAQQAAQxCYXNl
Q2hhbm5lbHMBBAABCkluQ2hhbm5lbHMBBAABB0NsYXNzZXMBBAABC0Ryb3BvdXRSYXRlAQgAAQRT
ZWVkAQYAAAAl/4UEAQEUbWFwW3N0cmluZ11bXWZsb2F0NjQB/4YAAQwB/4QAAAz/gwIBAv+EAAEI
AAAr/40EAQEabWFwW3N0cmluZ110ZW5zb3IuQWN0UXVhbnQB/44AAQwB/4wAAB//iwMBAv+MAAEC
AQVTY2FsZQEIAAEEWmVybwEGAAAA/gZW/4oBAQIBAgEGAQQCHwABEBVib3R0bGVuZWNrLmNvbnYx
LmJpYXMCAAAKdXAwLndlaWdodAj4BxpaT9V43r/4y/iXoe846T/4kVoTkr8y8T/4q12+xN1Auz/4
b1dTZ14p8z/4i8ESSh1fo7/4KGiJJ2631b/41xhsoDfgnL8PZGVjMC5jb252MS5iaWFzAQARZGVj
MC5jb252Mi53ZWlnaHQJ+PnkvBQ8KNm/+Lmvc8qAE9E/+BzMiXw/bbC/+Ha4SzyyUd+/+Iojp/GN
jca/+DiwBLnKzfU/+FGWWCsZNsg/+Ci29QxWcMW/+A8oDQxXU+W/D2VuYzAuY29udjIuYmlhcwEA
F2JvdHRsZW5lY2suY29udjIud2VpZ2h0JPiKQafJG1raP/g5ngVI6h/Sv/i8MH4r8OvcP/jwgrHM
MWTOP/hXRCG9sJjRP/gxtcr6H9bFP/gJcU1D/KyYv/gGfI+PxGzIP/hPI7uaw2vhv/hog3AJrFbB
P/hyocbzYZnMP/gdam95u27Jv/gp5m4kSUPmv/hJflzxIgjHP/j9dOL1Nha/v/gF+bI0Ljd+v/i4
AC8K0GriP/h1Zx5K2qm2v/jCdG2EwZLDv/jQMW//kDGoP/jOhrY/hqu5P/iOVfTAiL7LP/hBSvaK
mo95v/hzm+80URTQP/gwfTmzk1fCv/idtA2V4lecv/hN1QQ9fJF+v/hWrXY7Xc+7v/h9ZP2UnBB3
v/hUTK83oeDPP/h/4vwsYmvSP/ggqFDthmfUP/g1fONminm1v/jcXUi8ZLm3P/gMkX6Y7hLEP/gs
e77vHUrYPxVib3R0bGVuZWNrLmNvbnYyLmJpYXMCAAAMZmluYWwud2VpZ2h0Avj4gicGhlrzP/iI
tn82En/tPxFlbmMwLmNvbnYxLndlaWdodBv4Gpnt/Wx/1D/49LzzAw2v2T/4Xr9Ugj20sD/42Cyh
Eo2m3b/4hR0BGpiJxz/4/8AXzB8Xor/4A7psCkyF1T/4lM92pd7j0b/4HoEAmBpk3j/4PHe5rkaM
sz/4B0zwTjSD2L/4DQd5ZEbG0b/4IjnWbo5rnb/4l/MVNJ2n17/4oEQUv0zhyb/4iBpVjJ1bpb/4
riMhQMjrwL/46ukqV161lj/4N+R8Mo8nrT/4fyv5U0v60T/4xnfS/gsIYj/4g8mBrtg35j/4VEzx
a26Str/40g2VAbrK1r/4Re4djwck4D/4Go2sAYl4w7/4VdTfTwl10D8PZGVjMC5jb252Mi5iaWFz
AQAXYm90dGxlbmVjay5jb252MS53ZWlnaHQS+Idm7Rq/iMK/+H2QCC/F6tM/+GyPDjCuK+0/+NDl
sVYMd9A/+OzqVNsTwt+/+AjFeO7GN+w/+OI0YApKtc0/+Pjn7kFco9s/+GkS9FUz29m/+FB962fe
L+Q/+IVuepI6l8q/+F4nNE/+l9c/+F6IG26i2dU/+L/EVzo5DNY/+CAFJ8jRK8E/+PSVrVDYvdk/
+L7OmBtLAKM/+Hcf2GQyc94/CHVwMC5iaWFzAQARZGVjMC5jb252MS53ZWlnaHQS+HmOQEd0Xt4/
+I6S68DAqPE/+Gw7na2gatM/+KjDvUik2c8/+LDIX7awlpC/+AmAsiazrOI/+P4yeRoWj5A/+PT8
6B3Fnsg/+KqK6I0NW9w/+JzKFbkP8MQ/+HAb9D0bxNQ/+DylfiyoM5c/+IzZknOgZr+/+NQ35fKL
Ddi/+DKDzOobg9Q/+AV4BY6X5Ma/+J79ckZanXS/+A699Le408S/CmZpbmFsLmJpYXMCAAAPZW5j
MC5jb252MS5iaWFzAQARZW5jMC5jb252Mi53ZWlnaHQJ+Ke06svvcL4/+CjCu+Y1Z+A/+LYBpRMi
Eea/+GNkWJIQysG/+LWu7IHp49E/+IzAayXoGuE/+I+NuyR2ebS/+C0b4FYC/7S/+FFepkr0D+A/
AQcKZGVjMC5jb252MQH4S9jWQ2p2kT8ACmRlYzAuY29udjIB+IYRdUCFlpA/AAplbmMwLmNvbnYx
AfgNqdu1lCmCPwAKZW5jMC5jb252MgH4Gsr8s6mMfj8AEGJvdHRsZW5lY2suY29udjEB+IwzH8o2
BIg/ABBib3R0bGVuZWNrLmNvbnYyAfgOxAvEhgx2PwADdXAwAfjq+iuvXdR1PwESAAA=
`
)

// legacyBytes decodes one of the committed legacy checkpoints.
func legacyBytes(t *testing.T, b64 string) []byte {
	t.Helper()
	b, err := base64.StdEncoding.DecodeString(strings.ReplaceAll(b64, "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLegacyCheckpointRefused: no format before the model record is
// read — not the bare gob (no magic header), nor the gob-bodied versions
// 2 and 3 — and each is refused with ErrBadCheckpoint by every loader,
// the two versioned files as an unsupported version. Rounding float64
// weights into a float32 model on load is covered by
// TestCrossPrecisionCheckpointLoad.
func TestLegacyCheckpointRefused(t *testing.T) {
	for _, tc := range []struct {
		name, b64 string
		version   bool
	}{
		{"bare gob", legacyBareCheckpoint, false},
		{"version 2", legacyV2Checkpoint, true},
		{"version 3", legacyV3Checkpoint, true},
	} {
		data := legacyBytes(t, tc.b64)
		for loader, load := range map[string]func() error{
			"float64": func() error { _, err := Load[float64](bytes.NewReader(data)); return err },
			"float32": func() error { _, err := Load[float32](bytes.NewReader(data)); return err },
			"int8":    func() error { _, err := LoadQuantized(bytes.NewReader(data)); return err },
		} {
			err := load()
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("%s → %s: %v, want ErrBadCheckpoint", tc.name, loader, err)
			}
			if got := errors.Is(err, record.ErrVersion); got != tc.version {
				t.Errorf("%s → %s: unsupported version = %t, want %t (%v)", tc.name, loader, got, tc.version, err)
			}
		}
	}
}

// TestF32CheckpointRoundTrip: every float32 value is exactly representable
// in the file's float64 storage, so a float32 model round-trips
// bit-for-bit through Save/Load.
func TestF32CheckpointRoundTrip(t *testing.T) {
	m, err := New[float32](FastConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	b := saved(t, m.SaveFile)
	if !strings.HasPrefix(string(b), ckptRecord.Magic) {
		t.Fatal("versioned checkpoint must start with the magic header")
	}
	got, err := Load[float32](bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Params() {
		for j, w := range p.W.Data {
			if got.Params()[i].W.Data[j] != w {
				t.Fatalf("f32 round trip: %s[%d] differs", p.Name, j)
			}
		}
	}
}

// TestCrossPrecisionCheckpointLoad: a float64 checkpoint loads
// into a float32 model (down-converted) and a float32 checkpoint loads
// into a float64 model (exactly widened).
func TestCrossPrecisionCheckpointLoad(t *testing.T) {
	m64, err := New[float64](FastConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	m32, err := Load[float32](bytes.NewReader(saved(t, m64.SaveFile)))
	if err != nil {
		t.Fatalf("f64 → f32: %v", err)
	}
	for i, p := range m64.Params() {
		for j, w := range p.W.Data {
			if m32.Params()[i].W.Data[j] != float32(w) {
				t.Fatalf("f64→f32: %s[%d] not the rounded weight", p.Name, j)
			}
		}
	}

	back, err := Load[float64](bytes.NewReader(saved(t, m32.SaveFile)))
	if err != nil {
		t.Fatalf("f32 → f64: %v", err)
	}
	for i, p := range m32.Params() {
		for j, w := range p.W.Data {
			if back.Params()[i].W.Data[j] != float64(w) {
				t.Fatalf("f32→f64: %s[%d] not exactly widened", p.Name, j)
			}
		}
	}
}
