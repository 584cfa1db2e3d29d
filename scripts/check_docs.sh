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
#   6. the service evaluates with the one engine, whose planner
#      picks magic sets per goal:
#      the removed Dl_engine.pool_strategy is named in no file under
#      lib, bin, test, bench or docs, nor in README.md, DESIGN.md or
#      ARCHITECTURE.md; lib/service passes no ?strategy/?engine
#      override; and no doc or service/TCP source claims the concurrent
#      path forces an engine;
#   7. every stratum is maintained by Backward/Forward deletion:
#      lib/datalog/dl_incr.ml must still name it, no maintenance doc
#      may claim recursive strata run DRed / delete-and-rederive again,
#      and none may describe derivation counting as the repair scheme;
#   8. the request path locks: the service must still take the session
#      lock, and the Unix-socket server runs on the concurrent worker
#      loop — neither ARCHITECTURE.md nor svc_server.mli may call it a
#      single-threaded or batch loop, and Svc_server must not grow a
#      socket server of its own again;
#   9. one semi-naive round loop: no worker-matcher option
#      (MONDET_PAR_MATCHER / set_matcher appear in no source, test or
#      doc), and the round boundary `Dl_store.commit` (the one way a
#      round's derived tuples become the next delta) is called in exactly
#      one lib/datalog file;
#  10. one engine, no knob: no process-wide engine switch and no removed
#      strategy is named — `--engine`, `MONDET_ENGINE`, `set_default`,
#      `Dl_engine.Magic`, `Dl_engine.Parallel` or `Dl_engine.Indexed` —
#      in any file under lib, bin, test, bench, docs, .github or
#      .claude, nor in README.md, DESIGN.md or ARCHITECTURE.md; nor does
#      any of them describe a "process default engine";
#  11. one load harness (mondetbench): the deleted `mondet bench-serve`
#      and its private bench-row writer `merge_bench_rows` are named in
#      no file under lib, bin, test, bench, docs, .github or .claude,
#      nor in README.md, DESIGN.md or ARCHITECTURE.md, and no
#      svc_loadgen file sits under lib (its concurrency oracle is a
#      test helper).
#  12. one reading of a view: a view is its Datalog program, so the
#      deleted per-kind definition tags `Cq_def`, `Ucq_def` and
#      `Datalog_def` and the per-kind evaluator `View.eval` are named in
#      no file under lib, bin, test, bench, examples or docs.
#  13. one request path in the service: the deleted batch pool and its
#      second request path — `handle_batch`, `run_tasks`, `set_domains`,
#      `MONDET_DOMAINS`, `pworker_safe`, `Dl_parallel`, the "coordinator
#      regime", `batch --sequential` and `--domains` — are named in no
#      file under lib, bin, test, bench, examples, docs, .github or
#      .claude, nor in README.md, DESIGN.md, ARCHITECTURE.md, PAPER.md,
#      PAPERS.md or SNIPPETS.md.
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

# 6. the service's engine is the planner's.  An override
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
  err "lib/service overrides the engine above; the service runs the planner"
fi
for f in ARCHITECTURE.md DESIGN.md README.md docs/GUIDE.md \
  lib/service/svc_service.mli "$service_ml" lib/service/svc_tcp.ml; do
  if tr -s ' \n' '  ' <"$f" |
    grep -Eqi 'forc(e|es|ed|ing)( to)?( the)? [`[]?(indexed|vm|magic|naive)'; then
    err "$f claims the concurrent path forces an engine; it runs the planner"
  fi
done

# 7. the maintenance algorithm.  A claim is a sentence (no period in
#    between, flattened across lines as in rule 6) naming recursive
#    strata together with DRed or delete-and-rederive, in either order,
#    or pairing it with counting as the repair scheme; or a phrase
#    naming derivation counts or counting strata, passes, builds,
#    tables or repairs (Pebble's "support counting" is another
#    algorithm and passes).
incr_ml=lib/datalog/dl_incr.ml
grep -q 'Backward/Forward' "$incr_ml" ||
  err "$incr_ml no longer names Backward/Forward (update rule 7 and the docs)"
recursive='recursive (strata|stratum|ones)'
dred='(dred|delete-and-rederive)'
counting='derivation count|counting (strata|stratum|pass|passes|build|tables|repair)|counting( and|,| \+) (backward|b/f)'
for f in lib/datalog/dl_incr.mli "$incr_ml" lib/datalog/dl_semi.mli \
  lib/datalog/dl_vm.ml lib/service/svc_service.mli \
  lib/service/svc_session.ml bench/experiments.ml bench/bench_json.ml \
  .claude/skills/verify/SKILL.md README.md DESIGN.md ARCHITECTURE.md \
  docs/GUIDE.md; do
  flat=$(tr -s ' \n' '  ' <"$f")
  if printf '%s\n' "$flat" |
    grep -Eqi "$recursive[^.]*$dred|$dred[^.]*$recursive|counting \+ $dred"; then
    err "$f claims recursive strata run DRed; they run Backward/Forward deletion"
  fi
  if printf '%s\n' "$flat" | grep -Eqi "$counting"; then
    err "$f describes derivation counting; every stratum runs Backward/Forward deletion"
  fi
done

# 8. the request path's session lock, matched in its call shape as in
#    rule 6 (the comments naming it bracket the name instead); and the
#    Unix-socket server's shape.  A claim pairs a Unix-socket term
#    with "single-threaded" or "batch" within one clause-sized window
#    (no period or table bar in between), flattened as in rule 6.
grep -q 'Svc_session\.with_lock s (' "$service_ml" ||
  err "$service_ml no longer takes the session lock (update rule 8 and the docs)"
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
  err "the files above name the removed worker-matcher option"
fi
loops=$(grep -l 'Dl_store\.commit' lib/datalog/*.ml || true)
[ "$(echo "$loops" | grep -c .)" -eq 1 ] ||
  err "the semi-naive round loop must be written in exactly one lib/datalog file, found: $(echo $loops)"

# 10. one engine, no knob.  CHANGES.md, EXPERIMENTS.md and ROADMAP.md
#     are history and keep the names.
if grep -rlE -e '--engine|MONDET_ENGINE|set_default|Dl_engine\.(Magic|Parallel|Indexed)' \
  lib bin test bench docs .github .claude README.md DESIGN.md \
  ARCHITECTURE.md; then
  err "the files above name an engine switch or a removed strategy"
fi
for f in $(grep -rli 'default' lib bin test bench docs .github .claude \
  README.md DESIGN.md ARCHITECTURE.md); do
  if tr -s ' \n' '  ' <"$f" | grep -qi 'process[ -]default engine'; then
    err "$f describes a process default engine; the planner picks magic sets per goal"
  fi
done

# 11. one load harness.  CHANGES.md, EXPERIMENTS.md and ROADMAP.md are
#     history and keep the names.
if grep -rlE 'bench-serve|merge_bench_rows' lib bin test bench docs .github \
  .claude README.md DESIGN.md ARCHITECTURE.md; then
  err "the files above name the deleted bench-serve harness"
fi
if [ -n "$(find lib -iname 'svc_loadgen*')" ]; then
  err "lib holds a svc_loadgen file; the concurrency oracle lives in test/"
fi

# 12. one reading of a view.  CHANGES.md, EXPERIMENTS.md and ROADMAP.md
#     are history and keep the names.
if grep -rlE 'Cq_def|Ucq_def|Datalog_def|View\.eval' lib bin test bench \
  examples docs; then
  err "the files above name a per-kind view definition; a view is its Datalog program"
fi

# 13. one request path.  CHANGES.md, EXPERIMENTS.md and ROADMAP.md are
#     history and keep the names.
if grep -rlE -e 'handle_batch|run_tasks|set_domains|MONDET_DOMAINS|pworker_safe|Dl_parallel|coordinator regime|--sequential|--domains' \
  lib bin test bench examples docs .github .claude README.md DESIGN.md \
  ARCHITECTURE.md PAPER.md PAPERS.md SNIPPETS.md; then
  err "the files above name the deleted batch pool or its second request path"
fi

if [ "$fail" -eq 0 ]; then
  echo "check_docs: ok ($(echo "$verbs" | wc -w | tr -d ' ') verbs, $(echo "$flags" | wc -w | tr -d ' ') flags, $(echo "$subs" | wc -w | tr -d ' ') subcommands)"
fi
exit "$fail"
