#!/bin/sh
# Docs drift gate: the protocol and CLI surface documented in README.md
# and lib/service/svc_proto.mli must match what the code actually
# implements.  Greps, not builds — cheap enough to run on every CI push.
#
#   1. every wire verb printed by Svc_proto.print_request must be
#      documented in README.md and in the svc_proto.mli grammar block;
#   2. every verb named in the svc_proto.mli grammar block must still
#      exist in the implementation (catches docs outliving code);
#   3. every `--flag` README.md mentions must still be a flag defined in
#      bin/mondet.ml (catches docs of removed/renamed options);
#   4. every mondet subcommand must appear in README.md;
#   5. every wire verb must appear in the docs/GUIDE.md walkthroughs;
#   6. both service regimes evaluate with the process default engine:
#      the removed Dl_engine.pool_strategy is named in no file under
#      lib, bin, test, bench or docs, nor in README.md, DESIGN.md or
#      ARCHITECTURE.md; lib/service passes no ?strategy/?engine
#      override; and no doc or service/TCP source claims the concurrent
#      path forces an engine;
#   7. recursive strata are maintained by Backward/Forward deletion:
#      lib/datalog/dl_incr.ml must still name it, and no maintenance doc
#      may claim recursive strata run DRed / delete-and-rederive again;
#   8. the concurrent regime locks: the service must still take the
#      session lock and the heavy-verb mutex, and the Unix-socket server
#      runs on the concurrent worker loop — neither ARCHITECTURE.md nor
#      svc_server.mli may call it a single-threaded or batch loop, and
#      Svc_server must not grow a socket server of its own again;
#   9. one semi-naive round loop: Dl_parallel has no worker-matcher option
#      (MONDET_PAR_MATCHER / set_matcher appear in no source, test or
#      doc), and the disjoint round union `Instance.union_disjoint old
#      delta` is written in exactly one lib/datalog file;
#  10. the sequential engines: the removed Parallel strategy is named —
#      as `Dl_engine.Parallel`, `--engine parallel` or
#      `MONDET_ENGINE=parallel` — in no file under lib, bin, test, bench
#      or docs, nor in README.md, DESIGN.md or ARCHITECTURE.md;
#  11. one semi-naive matcher: the removed Indexed strategy is named —
#      as `Dl_engine.Indexed`, `--engine indexed` or
#      `MONDET_ENGINE=indexed` — in no file under lib, bin, test, bench
#      or docs, nor in README.md, DESIGN.md or ARCHITECTURE.md.
#
# Run from the repository root: scripts/check_docs.sh

set -eu

fail=0
err() {
  echo "check_docs: $*" >&2
  fail=1
}

proto_ml=lib/service/svc_proto.ml
proto_mli=lib/service/svc_proto.mli
main_ml=bin/mondet.ml

[ -f "$proto_ml" ] && [ -f "$proto_mli" ] && [ -f "$main_ml" ] || {
  echo "check_docs: run from the repository root" >&2
  exit 2
}

# 1. verbs implemented (the printer is the canonical list: every verb
#    constructor has exactly one `[ r.id; "verb" ]` arm)
verbs=$(grep -o 'r\.id; "[a-z-]*"' "$proto_ml" | sed 's/.*"\(.*\)"/\1/' | sort -u)
[ -n "$verbs" ] || err "no verbs extracted from $proto_ml (pattern drift?)"
for v in $verbs; do
  grep -q "$v" README.md || err "verb '$v' not documented in README.md"
  grep -q "^ID $v\( \|\$\)" "$proto_mli" ||
    err "verb '$v' not in the $proto_mli grammar block"
done

# 2. verbs the grammar block documents (`ID verb ...` lines in the mli
#    header comment) still implemented
doc_verbs=$(sed -n 's/^ID \([a-z][a-z-]*\).*/\1/p' "$proto_mli" | sort -u)
[ -n "$doc_verbs" ] || err "no verbs extracted from $proto_mli (pattern drift?)"
for v in $doc_verbs; do
  echo "$verbs" | grep -qx "$v" ||
    err "grammar block in $proto_mli documents unimplemented verb '$v'"
done

# 3. README flags still defined (a cmdliner flag named f appears in
#    bin/mondet.ml as a string literal "f" inside an info [ ... ] list)
flags=$(grep -o -- '`--[a-z-]*' README.md | sed 's/`--//' | sort -u)
for f in $flags; do
  grep -q "\"$f\"" "$main_ml" ||
    err "README.md documents flag --$f, not defined in $main_ml"
done

# 5. verbs walked through in the guide
for v in $verbs; do
  grep -q "$v" docs/GUIDE.md || err "verb '$v' not shown in docs/GUIDE.md"
done

# 4. subcommands reachable from README
subs=$(grep -o 'Cmd\.info "[a-z-]*"' "$main_ml" | sed 's/.*"\(.*\)"/\1/' |
  grep -v '^mondet$' | sort -u)
for s in $subs; do
  grep -q "$s" README.md || err "subcommand '$s' not mentioned in README.md"
done

# 6. the concurrent path's engine is the process default.  An override
#    is a labelled [?strategy]/[~strategy]/[?engine]/[~engine] argument
#    in a service source; claims wrap across lines, so each file is
#    flattened to one line before matching.  CHANGES.md, EXPERIMENTS.md
#    and ROADMAP.md are history and keep the names.
service_ml=lib/service/svc_service.ml
if grep -rlE 'pool_strategy' lib bin test bench docs README.md DESIGN.md \
  ARCHITECTURE.md; then
  err "the files above name the removed Dl_engine.pool_strategy"
fi
if grep -rnE '[?~](strategy|engine)\b' lib/service; then
  err "lib/service overrides the engine above; both regimes run the process default"
fi
for f in ARCHITECTURE.md DESIGN.md README.md docs/GUIDE.md \
  lib/service/svc_service.mli "$service_ml" lib/service/svc_tcp.ml; do
  if tr -s ' \n' '  ' <"$f" |
    grep -Eqi 'forc(e|es|ed|ing)( to)?( the)? [`[]?(indexed|vm|magic|naive)'; then
    err "$f claims the concurrent path forces an engine; it runs the process default"
  fi
done

# 7. the recursive-strata maintenance algorithm.  A claim is a sentence
#    (no period in between, flattened across lines as in rule 6) naming
#    recursive strata together with DRed or delete-and-rederive, in
#    either order, or pairing it with counting as the repair scheme.
incr_ml=lib/datalog/dl_incr.ml
grep -q 'Backward/Forward' "$incr_ml" ||
  err "$incr_ml no longer names Backward/Forward (update rule 7 and the docs)"
recursive='recursive (strata|stratum|ones)'
dred='(dred|delete-and-rederive)'
for f in lib/datalog/dl_incr.mli "$incr_ml" DESIGN.md README.md docs/GUIDE.md \
  lib/service/svc_service.mli ARCHITECTURE.md; do
  if tr -s ' \n' '  ' <"$f" |
    grep -Eqi "$recursive[^.]*$dred|$dred[^.]*$recursive|counting \+ $dred"; then
    err "$f claims recursive strata run DRed; they run Backward/Forward deletion"
  fi
done

# 8. the concurrent regime's locks, matched in their call shapes as in
#    rule 6 (the comments naming them bracket the names instead); and
#    the Unix-socket server's shape.  A claim pairs a Unix-socket term
#    with "single-threaded" or "batch" within one clause-sized window
#    (no period or table bar in between), flattened as in rule 6.
grep -q 'Svc_session\.with_lock s (' "$service_ml" ||
  err "$service_ml no longer takes the session lock (update rule 8 and the docs)"
grep -Eq 'Mutex\.(protect|lock) t\.heavy' "$service_ml" ||
  err "$service_ml no longer locks the heavy-verb mutex (update rule 8 and the docs)"
server_mli=lib/service/svc_server.mli
unix_sock='unix[- ](socket|domain)'
loop_claim='(single-threaded|batch)'
for f in ARCHITECTURE.md "$server_mli"; do
  if tr -s ' \n' '  ' <"$f" |
    grep -Eqi "$unix_sock[^.|]{0,80}$loop_claim|$loop_claim[^.|]{0,80}$unix_sock"; then
    err "$f calls the Unix-socket server single-threaded or batched; it runs the Svc_tcp worker loop"
  fi
done
if grep -q '^val serve_socket' "$server_mli"; then
  err "$server_mli declares a second socket loop; Unix sockets are served by Svc_tcp.serve"
fi

# 9. the semi-naive round loop.  CHANGES.md is history and keeps the names.
if grep -rlE 'MONDET_PAR_MATCHER|set_matcher' lib bin test docs \
  README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md ROADMAP.md; then
  err "the files above name the removed Dl_parallel matcher option"
fi
loops=$(grep -l 'Instance\.union_disjoint old delta' lib/datalog/*.ml || true)
[ "$(echo "$loops" | grep -c .)" -eq 1 ] ||
  err "the semi-naive round loop must be written in exactly one lib/datalog file, found: $(echo $loops)"

# 10. the removed Parallel strategy.  CHANGES.md, EXPERIMENTS.md and
#     ROADMAP.md are history and keep the names.
if grep -rlE 'Dl_engine\.Parallel|--engine parallel|MONDET_ENGINE=parallel' \
  lib bin test bench docs README.md DESIGN.md ARCHITECTURE.md; then
  err "the files above name the removed Parallel strategy"
fi

# 11. the removed Indexed strategy (the interpreted slot matcher).
#     History files keep the names, as in rule 10.
if grep -rlE 'Dl_engine\.Indexed|--engine indexed|MONDET_ENGINE=indexed' \
  lib bin test bench docs README.md DESIGN.md ARCHITECTURE.md; then
  err "the files above name the removed Indexed strategy"
fi

if [ "$fail" -eq 0 ]; then
  echo "check_docs: ok ($(echo "$verbs" | wc -w | tr -d ' ') verbs, $(echo "$flags" | wc -w | tr -d ' ') flags, $(echo "$subs" | wc -w | tr -d ' ') subcommands)"
fi
exit "$fail"
