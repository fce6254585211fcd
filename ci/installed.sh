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
# Every run imports the CLI, so it must not pull in dataclasses or
# inspect; tier-1 checks this for src/, here it is the installed copy.
python -c "import sys, wreath_eulerian.cli
loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]
assert not loaded, f'importing wreath_eulerian.cli loaded {loaded}'"
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
# In text, the row also gets its verdicts.  Newton's inequalities reject
# the degree-4000 row in linear time, with no Sturm chain.
timeout 30 "${cli[@]}" poly --alpha 4000 --n 2 > wide.txt
count 1 '^real_rooted: false$' wide.txt
# A sign-change certificate proves each alpha = 2 row real-rooted, with no
# Sturm chain: the report to n = 100, capped at 2^99 * 100!.
timeout 60 "${cli[@]}" report --alpha 2 --max-n 100 --cap 59152516512272428904085701278152386534165211971726975430109776253421241509276229875065650191304775824558476227791793686722441331088317359076279776965958488326930432000000000000000000000000 > report.txt
count 100 '' report.txt
count 100 ' real_rooted=true$' report.txt
# The certificate proves the other domains' alpha = 2 rows too: the full
# group and last color 1 at n = 60, capped at 2^60 * 60!.
for domain in "full" "fixed --beta 1"; do
  # $domain is split on purpose: "fixed --beta 1" is two flags.
  timeout 60 "${cli[@]}" poly --alpha 2 --n 60 --domain $domain --cap 9593444981835986954891939947669322185182489942608389896364094195294295395488811817369600000000000000 > domain.txt
  count 1 '^real_rooted: true$' domain.txt
done
# Newton's inequalities reject every alpha = 3 row past n = 1 before any
# certificate search: the report to n = 60, capped at 3^59 * 60!, takes
# well under a second.
timeout 30 "${cli[@]}" report --alpha 3 --max-n 60 --cap 117578760567418188468572280676481373826264146337364972585584376233620672727431171775208728245043200000000000000 > report.txt
count 60 '' report.txt
count 1 ' real_rooted=true$' report.txt
head -1 report.txt > first.txt
count 1 '^alpha=3 n=1 .* real_rooted=true$' first.txt
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
expect 3 verify coset-invariance --alpha 3 --n 5 --cap 9720
