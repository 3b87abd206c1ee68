#!/bin/sh
# Tour of the command-line front end.  Works from a fresh checkout; after
# `pip install -e .` you can replace the GVIR invocation with the plain
# `gvir` console script.
#
# Run:  sh demos/06_cli.sh
set -e
cd "$(dirname "$0")/.."
GVIR="env PYTHONPATH=src python3 -m gvir.cli"
OUT=$(mktemp -d)
# removed however the script ends, a failing step under set -e included
trap 'rm -rf "$OUT"' EXIT

echo '== bracket: positional element tokens =='
# the report goes to a file first: piped into head, a failing run would
# leave the pipeline with head's status and pass under set -e
$GVIR bracket 'd[1,0]' 'd[-1,0]' --out "$OUT" >/dev/null
head -20 "$OUT/bracket.json"

echo
echo '== verma: dimension table + singular conditions, CSV artifact =='
$GVIR verma --window-L 4 --format csv --out "$OUT" >/dev/null
cat "$OUT/verma.csv"

echo
echo '== induce: windowed table from a JSON config =='
cat > "$OUT/induce.json.in" <<'EOF'
{"group": {"rank": 2}, "b": [0, 1], "window": {"L": 1, "N": 1}, "format": "csv"}
EOF
$GVIR induce --config "$OUT/induce.json.in" --out "$OUT" >/dev/null
cat "$OUT/induce.csv"

echo
echo '== interseries: reducibility + randomized closure check =='
cat > "$OUT/inter.json.in" <<'EOF'
{"group": {"rank": 2}, "bindings": {"alpha": [1, 0], "beta": 1}, "seed": 7}
EOF
$GVIR interseries --config "$OUT/inter.json.in" --out "$OUT" \
  | python3 -c 'import json,sys; r=json.load(sys.stdin)["results"]; print("reducible:", r["reducible"], "| subquotient:", r["subquotient"]["kind"])'

echo
echo '== classify: descriptor file in, family + certificates out =='
env PYTHONPATH=src python3 - "$OUT/desc.json" <<'EOF'
import json, sys
from gvir import Context, Group, InducedModule, Window, descriptor_from_induced
mod = InducedModule(Context.of_rank(2), Group.of_rank(2), (0, 1), Window.make(1, 1))
json.dump(descriptor_from_induced(mod.quotient_dims()).to_json(), open(sys.argv[1], "w"))
EOF
$GVIR classify "$OUT/desc.json" --out "$OUT" \
  | python3 -c 'import json,sys; r=json.load(sys.stdin)["results"]["report"]; print("case:", r["case"], "| b:", r["detected_b"], "| G0:", r["detected_G0_basis"])'

echo
echo "artifacts written to $OUT:"
ls "$OUT" | grep -v '\.in$'
