#!/usr/bin/env bash
# Scipy-free smoke run: the command line tool runs the paper's expansions end to end (scalar fields on
# the open, flat and closed models, their transforms, a spin-2 lensing field), warnings as errors.
# CURVEDFIELD is the command (default `curvedfield`), RUNNER_TEMP the directory to write in (default a
# fresh `mktemp -d`). From a checkout, without installing:
#   CURVEDFIELD="python -m curvedfield.cli" PYTHONPATH=src bash tools/smoke.sh
set -Eeuo pipefail
trap 'echo "smoke: line $LINENO failed: $BASH_COMMAND" >&2' ERR
export PYTHONWARNINGS=error
read -ra CF <<< "${CURVEDFIELD:-curvedfield}"
T=${RUNNER_TEMP:-$(mktemp -d)}

# cfg NAME [BASE] ARG...: write $T/NAME.cfg: the lines of $T/BASE.cfg (a name with no '.') less the
# key of every ARG, then a `KEY = VALUE` line for each KEY=VALUE ARG (a bare KEY only drops)
cfg() {
  local name=$1 a drop=(); shift
  if [[ $1 != *.* ]]; then
    for a in "${@:2}"; do drop+=(-e "^${a%%=*} ="); done
    grep -v "${drop[@]}" "$T/$1.cfg" > "$T/$name.cfg"; shift
  else : > "$T/$name.cfg"; fi
  for a; do if [[ $a == *=* ]]; then echo "${a%%=*} = ${a#*=}"; fi; done >> "$T/$name.cfg"
}
# run CMD NAME OUT [ARG...]: the command on $T/NAME.cfg, writing $T/OUT
run() { "${CF[@]}" "$1" --config "$T/$2.cfg" --out "$T/$3" "${@:4}"; }
# job CMD NAME [BASE] ARG...: cfg NAME [BASE] ARG..., then CMD on it, writing $T/NAME.cfd or .csv
job() {
  local ext=csv; if [[ $1 == synthesize || $1 == spin ]]; then ext=cfd; fi
  cfg "${@:2}"; run "$1" "$2" "$2.$ext"
}
# fails RC PREFIX CMD NAME OUT [ARG...]: exits RC with one stderr line `PREFIX: ...` and no
# traceback, and writes nothing at OUT's first path component
fails() {
  local want=$1 prefix=$2 rc=0; shift 2
  run "$@" 2> "$T/err" || rc=$?
  cat "$T/err" >&2
  test "$rc" -eq "$want"
  test "$(wc -l < "$T/err")" -eq 1
  grep -q "^$prefix: " "$T/err"
  if grep -q Traceback "$T/err"; then return 1; fi
  test ! -e "$T/${3%%/*}"
}
# below NOTE LIMIT NAME...: the `# NOTE: ` line of each $T/NAME.csv reads below LIMIT
below() {
  local note=$1 limit=$2 f; shift 2
  for f; do
    python -c 'import sys; v = float(sys.argv[2]); print(sys.argv[1], v); sys.exit(not v < float(sys.argv[3]))' \
      "$f" "$(sed -n "s/^# $note: //p" "$T/$f.csv")" "$limit"
  done
}
# one_cpu NAME [BASE] ARG...: job estimate ..., then again under `taskset -c 0`: the same table, byte for byte
one_cpu() {
  job estimate "$@"
  taskset -c 0 "${CF[@]}" estimate --config "$T/$1.cfg" --out "$T/${1}1.csv"
  cmp "$T/$1.csv" "$T/${1}1.csv"
}

python -c "import sys, curvedfield.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
# nor the thread pool of concurrent.futures and the logging it pulls in
python -c "import sys, curvedfield.cli; \
assert not {'concurrent.futures', 'logging'} & set(sys.modules), 'concurrent.futures or logging imported'"
"${CF[@]}" --version
cfg bg cosmology.h0=67.8 cosmology.omega_m=0.315 cosmology.omega_l=0.685 cosmology.omega_r=4.9e-5 \
  grid.z_max=4.0 grid.n_z=3
"${CF[@]}" background --config "$T/bg.cfg"
fails 2 'io error' background bg missing/bg.csv
job synthesize syn geometry.kind=open geometry.k=-0.5 spectrum.form=gaussian_bump synthesis.l_max=2 \
  synthesis.k_max=6.0 synthesis.k_panels=2 synthesis.k_order=4 grid.n_chi=3 grid.chi_max=2.0 grid.n_theta=2 \
  grid.n_phi=4
# the closed and flat radial sweeps run without scipy too
job synthesize closed geometry.kind=closed geometry.k=1.0 spectrum.form=gaussian_bump synthesis.l_max=2 \
  synthesis.omega_max=12 grid.n_chi=3 grid.chi_max=2.0 grid.n_theta=2 grid.n_phi=4
cfg closed_nw closed synthesis.omega_max
fails 2 'config error' synthesize closed_nw closed_nw.cfd
# closed columns near the origin and the antipode stay finite and certify at large omega
job synthesize closed_big geometry.kind=closed geometry.k=1.0 spectrum.form=gaussian_bump spectrum.k0=200.0 \
  spectrum.sigma=80.0 synthesis.l_max=8 synthesis.omega_max=400 grid.n_chi=64 grid.chi_max=3.0 grid.n_theta=2 \
  grid.n_phi=4
job synthesize flat syn geometry.k geometry.kind=flat
# large L on every model: the radial plan's bounds, with no per-rung pass behind them
job synthesize open64 geometry.kind=open geometry.k=-0.5 spectrum.form=gaussian_bump synthesis.l_max=64 \
  synthesis.k_max=6.0 synthesis.k_panels=4 synthesis.k_order=12 grid.n_chi=8 grid.chi_max=3.0 grid.n_theta=2 \
  grid.n_phi=4
job synthesize flat64 open64 geometry.k geometry.kind=flat
job synthesize closed128 geometry.kind=closed geometry.k=1.0 spectrum.form=gaussian_bump spectrum.k0=20.0 \
  spectrum.sigma=8.0 synthesis.l_max=128 synthesis.omega_max=150 grid.n_chi=16 grid.chi_max=3.0 grid.n_theta=2 \
  grid.n_phi=4
# a complex field prints its rms as sqrt(mean |z|^2), with no ComplexWarning
job synthesize cplx syn synthesis.real=false
job transform tr geometry.kind=flat profile.center=2.0 profile.halfwidth=1.8 grid.chi_max=4.5 grid.panels=64 \
  spectral.k_max=150
# forward mode writes the spectral amplitudes alone
job transform tr_fwd tr transform.mode=forward
# open (sinh scaling) and closed (integer lattice) roundtrips, by the angle-addition factors
job transform tr_open geometry.kind=open geometry.k=-1.0 profile.center=2.0 profile.halfwidth=1.8 \
  grid.chi_max=4.5 grid.panels=85 spectral.k_max=200
# 83 panels: 996 radii, so the last block of the radii's angle addition is partial
job transform tr_open83 tr_open grid.panels=83
job transform tr_closed geometry.kind=closed geometry.k=1.0 profile.center=1.5 profile.halfwidth=1.4 \
  grid.chi_max=3.141592653589793 grid.panels=100 spectral.omega_max=300
# every k tail is checked, and these exit 4 with no table: the roundtrip on 16 chi
# panels (the lattice's k tail carries half the mass), the roundtrip on a 7-point
# lattice (omega_max 6: k tail 0.156) and the forward on 16 panels (k tail 0.515)
cfg tr_closed16 tr_closed grid.panels=16
cfg tr_closed_w6 tr_closed spectral.omega_max=6
cfg tr_closed16_fwd tr_closed16 transform.mode=forward
for f in tr_closed16 tr_closed_w6 tr_closed16_fwd; do fails 4 'numerical error' transform $f $f.csv; done
# each roundtrip returns its profile within 1e-6 of the profile's max
below 'max relative roundtrip error' 1e-6 tr tr_open tr_open83 tr_closed
# analytic_correlation sums its nodes in the transforms' zonal pass
job estimate est geometry.kind=flat spectrum.form=gaussian_bump spectrum.k0=3.0 spectrum.sigma=0.8 \
  synthesis.l_max=1 synthesis.k_max=8.0 synthesis.k_panels=4 synthesis.k_order=6 \
  estimate.n_realizations=200 estimate.lags=0.5,1.0
# a complex field draws the m < 0 blocks of the synthesis too
job estimate est_cplx est synthesis.l_max=2 synthesis.real=false
# a real field's float64 m = 0 on the open and closed radial factors too
job estimate est_open est geometry.kind=open geometry.k=-0.5
job estimate est_closed est geometry.kind=closed geometry.k=1.0 synthesis.omega_max=12
# a real estimate of 36,000 normals a draw shares its m = 0 draws between two threads
# when two CPUs are free; on one CPU (taskset) it writes the same table, byte for byte
one_cpu est_big est synthesis.l_max=2 estimate.n_realizations=12000
# a complex field of that size draws every block on the calling thread: the same table on one CPU
one_cpu est_big_cplx est_big synthesis.real=false
# on the open model its m = 0 draws start while the certified radial table is built: the same table on one CPU
one_cpu est_big_open est_big geometry.kind=open geometry.k=-0.5
# each estimate's max |z| against analytic_correlation stays below 5 (acceptance 5)
below 'max |z|' 5 est est_cplx est_open est_closed est_big est_big_cplx est_big_open
job spin spin spin.s=2 spin.l_max=4 lensing.observable=gamma grid.n_chi=3 grid.chi_max=2.0 grid.n_theta=4 \
  grid.n_phi=8
# it reads back finite, with the chi = 0 shell exactly 0 (acceptance 6)
python -c "import sys, numpy as np; from curvedfield.fieldfile import read_field; \
v = read_field(sys.argv[1]).values; assert np.all(np.isfinite(v)), 'non-finite values'; \
assert np.all(v[0] == 0.0), 'the chi = 0 shell is not 0'" "$T/spin.cfd"
# two runs in one interpreter (one cached parser, one re-keyed stream) give one field
python -c "import sys, numpy as np; from curvedfield.cli import main; \
from curvedfield.fieldfile import read_field; d = sys.argv[1]; \
outs = [f'{d}/spin7_{i}.cfd' for i in (1, 2)]; \
assert [main(['spin', '--config', f'{d}/spin.cfg', '--out', o, '--seed', '7']) for o in outs] == [0, 0]; \
assert np.array_equal(*(read_field(o).values for o in outs)), 'in-process runs differ'" "$T"
# a seed outside the non-negative 63 bits exits 3 and writes no container
fails 3 'domain error' spin spin spin_neg.cfd --seed -1
echo "smoke: every check passed in $T"
