#!/usr/bin/env bash
# Checks of the wreath-eulerian command as a user runs it, from outside the
# checkout.  The arguments name the command to check, the installed
# wreath-eulerian by default:
#
#     bash ci/installed.sh
#     PYTHONPATH=/path/to/src bash ci/installed.sh python -m wreath_eulerian.cli
#
# Run it from an empty directory: it writes its scratch files there.
set -e
if [ "$#" -eq 0 ]; then
  set -- wreath-eulerian
fi
cli=("$@")

# expect STATUS ARGS...: the command exits STATUS with one stderr line.
expect() {
  want=$1; shift
  status=0
  "${cli[@]}" "$@" > /dev/null 2> stderr.txt || status=$?
  lines=$(wc -l < stderr.txt)
  if [ "$status" -ne "$want" ] || [ "$lines" -ne 1 ]; then
    echo "wreath-eulerian $*: exit $status, $lines stderr lines; want exit $want, 1 line"
    exit 1
  fi
}
# one_pass WORD COMMAND...: the command prints exactly one line, to
# walk.txt, a PASS line that holds WORD unless WORD is empty.
one_pass() {
  word=$1; shift
  "$@" > walk.txt
  if [ "$(wc -l < walk.txt)" -ne 1 ] || ! grep -q '^PASS ' walk.txt \
      || { [ -n "$word" ] && ! grep -qw "$word" walk.txt; }; then
    echo "$*: want one PASS line${word:+ with $word}"
    cat walk.txt
    exit 1
  fi
}
# count WANT PATTERN FILE: exactly WANT lines of FILE match the extended
# regular expression PATTERN; the empty PATTERN matches every line.
count() {
  got=$(grep -cE -- "$2" "$3" || true)
  if [ "$got" != "$1" ]; then
    echo "$3: $got lines match '$2'; want $1"
    tail -3 "$3"
    exit 1
  fi
}

"${cli[@]}" --help
# Every run imports the CLI, so it must not pull in the seven modules that
# tier-1's TestStartup names; tier-1 checks this for src/, here it is the
# installed copy.  Only what the import adds counts: site may load typing
# itself, and -S would drop the site-packages that hold the installed copy.
# The installed package exports the sorted union of its modules' __all__.
# Under the interpreter's default int-str digit limit, parse reads a
# 5,000-digit entry and refuses it as no permutation, in one line.
python -c "import sys
before = set(sys.modules)
import wreath_eulerian.cli
heavy = ('dataclasses', 'inspect', 'typing', 'fractions', 'decimal', 'csv', 'json')
loaded = [m for m in heavy if m in sys.modules and m not in before]
assert not loaded, f'importing wreath_eulerian.cli loaded {loaded}'
import wreath_eulerian as w
union = [*w.core.__all__, *w.enumeration.__all__, *w.poly.__all__, *w.stats.__all__]
assert w.__all__ == sorted(union), 'wreath_eulerian.__all__ differs from the union of the module lists'
try:
    w.parse(2, '1' * 5000 + '^0')
except w.ValidationError as exc:
    message = str(exc)
else:
    raise AssertionError('parse accepted a 5,000-digit entry')
assert '\n' not in message and 'w^c' not in message, message"
# A WREATH_CAP of 4,401 digits, past Python's default int-str limit, is read.
WREATH_CAP=$(printf '1%04400d' 0) "${cli[@]}" poly --alpha 2 --n 3 > long_cap.txt
count 1 '^coefficients: 1 6 10 6 1$' long_cap.txt
# The csv format joins each row's fields with commas and quotes none, so
# its bytes are pinned here: the flag table to n = 3 and the alpha-3
# report to n = 3.
"${cli[@]}" table --alpha 2 --max-n 3 --format csv > got.csv
cat > want.csv <<'CSV'
n,k,count
1,0,1
2,0,1
2,1,2
2,2,1
3,0,1
3,1,6
3,2,10
3,3,6
3,4,1
CSV
cmp want.csv got.csv
"${cli[@]}" report --alpha 3 --max-n 3 --format csv > got.csv
cat > want.csv <<'CSV'
alpha,n,degree,cardinality,palindromic,unimodal,real_rooted
3,1,0,1,true,true,true
3,2,3,6,true,true,false
3,3,6,54,true,true,false
CSV
cmp want.csv got.csv
"${cli[@]}" report --alpha 2 --max-n 40 --cap 448554170605606071010162734597677682499076317249536000000000
# A large sweep from one pass: ABR to n = 60, capped at 2^60 * 60!.
"${cli[@]}" verify abr-identity --max-n 60 --cap 9593444981835986954891939947669322185182489942608389896364094195294295395488811817369600000000000000 > abr.txt
count 60 '^PASS ' abr.txt
# Each stream verifier checks the 9720 elements of the (3, 5) quotient.
for target in symmetry involution coset-invariance; do
  one_pass 9720 "${cli[@]}" verify "$target" --alpha 3 --n 5
done
# The stream verifiers walk the n! windows once, then check one window per
# (descent class, coloring): 2^(n-1) * alpha^(n-1) checks.  So the
# 5160960 elements of the (2, 8) quotient, the 3674160 cosets of (3, 7) and
# the 92897280 elements of the (2, 9) quotient each take about a second.
one_pass 5160960 timeout 120 "${cli[@]}" verify symmetry --alpha 2 --n 8
one_pass 3674160 timeout 60 "${cli[@]}" verify coset-invariance --alpha 3 --n 7
one_pass 92897280 timeout 60 "${cli[@]}" verify symmetry --alpha 2 --n 9
# The cap reads each domain's own size: 9720 admits the (3, 5)
# quotient, and the coset verifier's 29160-element full group not.
one_pass "" "${cli[@]}" verify symmetry --alpha 3 --n 5 --cap 9720
# A builder step costs O(alpha * n) big-integer operations on states
# of at most n slots, so the (4000, 2) quotient row, a header and
# coefficients 0..4000, takes well under a minute.  The csv format
# computes no shape verdict.
timeout 60 "${cli[@]}" poly --alpha 4000 --n 2 --format csv > wide.csv
count 4002 '' wide.csv
# In text, the row also gets its verdicts.  Newton's middle inequality
# rejects the degree-4000 row in O(1), with no Sturm chain.
timeout 30 "${cli[@]}" poly --alpha 4000 --n 2 > wide.txt
count 1 '^real_rooted: false$' wide.txt
# A sign-change certificate proves each alpha = 2 row real-rooted, with no
# Sturm chain: the report to n = 200, capped at 2^199 * 200!, takes a few
# seconds.
timeout 15 "${cli[@]}" report --alpha 2 --max-n 200 --cap 633662165486321302312676440172247498651749454542477318644298323004422280636105549780077017919165059491515072380681405979011521558321361558967172105026629179081285645006666549529486936452855878850231354187216274098585722453116872964878404969959890757726523372627296764581554511652884827945090880333853358561026186720995539379788205892262162833285269179081271193147599504549755953201807360000000000000000000000000000000000000000000000000 > report.txt
count 200 '' report.txt
count 200 ' real_rooted=true$' report.txt
# The certificate proves the other domains' alpha = 2 rows too: the full
# group and last color 1 at n = 60, capped at 2^60 * 60!.
for domain in "full" "fixed --beta 1"; do
  # $domain is split on purpose: "fixed --beta 1" is two flags.
  timeout 60 "${cli[@]}" poly --alpha 2 --n 60 --domain $domain --cap 9593444981835986954891939947669322185182489942608389896364094195294295395488811817369600000000000000 > domain.txt
  count 1 '^real_rooted: true$' domain.txt
done
# Newton's middle inequality, read in O(1), rejects every alpha = 3 row
# past n = 1 but n = 3; there the certificate search stops at its sign
# guard and the row's own Sturm chain rejects.  So the report to n = 60,
# capped at 3^59 * 60!, takes well under a second.
timeout 30 "${cli[@]}" report --alpha 3 --max-n 60 --cap 117578760567418188468572280676481373826264146337364972585584376233620672727431171775208728245043200000000000000 > report.txt
count 60 '' report.txt
count 1 ' real_rooted=true$' report.txt
head -1 report.txt > first.txt
count 1 '^alpha=3 n=1 .* real_rooted=true$' first.txt
# The same holds wide: the report to n = 150, capped at 3^149 * 150!,
# takes a second or two, most of it building the rows.
timeout 30 "${cli[@]}" report --alpha 3 --max-n 150 --cap 7046287581564672026693630546409744940135929981241908715182725990474494017302187032327244766096314905082362775938096305100487335201722459969112068004443358274282385846950872905568633860379667087864150740723185542624187311391146378117702953091512620855069892438356254671078522839967332913031319388160000000000000000000000000000000000000 > report.txt
count 150 '' report.txt
count 1 ' real_rooted=true$' report.txt
# A colored-descent row is not palindromic and keeps its middle Newton
# inequality, so its Sturm chain decides it: the (3, 40) quotient row,
# capped at 3^39 * 40!, takes well under a second.
timeout 30 "${cli[@]}" poly --stat descent --alpha 3 --n 40 --cap 3306541685553205566003624768132249085847261660988649242624000000000 > descent.txt
count 1 '^real_rooted: true$' descent.txt
count 1 '^palindromic: false$' descent.txt
# The (3, 3) row of last color 2 keeps its middle inequality and has no
# certificate, so its chain finds the non-real roots.
timeout 30 "${cli[@]}" poly --alpha 3 --n 3 --domain fixed --beta 2 > fixed.txt
count 1 '^real_rooted: false$' fixed.txt
# Builder memory grows like alpha * n, not alpha^2, so (20000, 2) fits too.
timeout 60 "${cli[@]}" poly --alpha 20000 --n 2 --format csv > wide.csv
count 20002 '' wide.csv
# A usage error exits 2 and a cap refusal 3, each with one stderr line.
expect 2 poly --alpha 0 --n 2
expect 2 poly --alpha 2 --n 3 --beta 7
expect 2 verify symmetry
expect 2 verify abr-identity --max-n 0
expect 2 verify abr-identity --max-n 2 --alpha 7
expect 2 verify symmetry --alpha 3 --n 5 --max-n 2
expect 2 verify product-identity --max-k 0
expect 3 table --alpha 2 --max-n 6 --cap 100
# The (2, 1500) quotient's 2^1499 * 1500! elements have 4,566 digits, past
# Python's default int-str limit, and are still refused as over the cap.
expect 3 poly --alpha 2 --n 1500
expect 3 verify coset-invariance --alpha 3 --n 5 --cap 9720
