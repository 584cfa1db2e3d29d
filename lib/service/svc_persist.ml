(* Cache snapshots: persist the fingerprint-keyed LRU across restarts.

   The subtlety is that fingerprint cache keys hash *intern ids*
   (symbols and named constants both live in the global {!Symtab}), and
   ids are assigned in first-intern order — they are process-local.  A
   key written by one process is meaningless to another unless both
   intern the same names to the same ids.  The snapshot therefore
   records the writer's full symbol table, in id order, ahead of the
   entries; [load] re-interns the names in that order before replaying a
   single entry.  At boot the table is (nearly) empty, so each name
   lands on its original id and every key stays valid.  If any name
   lands elsewhere — the snapshot is being loaded into a warm process
   whose table already diverged — the whole snapshot is discarded
   rather than risk serving another key's cached body.

   Format (text, one record per line):

   {v
   mondet-cache/1 mode=fingerprint syms=<N> entries=<M>
   <N lines: "%S", symbol names in id order 0..N-1>
   <M lines: "%S %S", key then body, least-recently-used first>
   v}

   The mode field names the key scheme.  Fingerprint keys are the only
   scheme the service has, so [load] rejects any other mode.  Entries
   are written least-recent first so that replaying them through
   {!Svc_cache.add} reproduces both contents and recency order.  [save]
   writes to a temporary sibling and renames, so a crash mid-write never
   clobbers a good snapshot. *)

let mode = "fingerprint"

let version_line ~syms ~entries =
  Printf.sprintf "mondet-cache/1 mode=%s syms=%d entries=%d" mode syms entries

let save path svc =
  let cache = Svc_service.cache svc in
  (* snapshot the entries first: the symbol table only ever grows, so
     every id a key mentions is covered by a [size] read taken after *)
  let entries = List.rev (Svc_cache.fold_lru cache (fun k v acc -> (k, v) :: acc) []) in
  let syms = Symtab.size () in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (version_line ~syms ~entries:(List.length entries));
      output_char oc '\n';
      for id = 0 to syms - 1 do
        Printf.fprintf oc "%S\n" (Symtab.name id)
      done;
      List.iter (fun (k, v) -> Printf.fprintf oc "%S %S\n" k v) entries);
  Sys.rename tmp path

(* Re-intern the snapshot's names in id order; [Error] if any lands on a
   different id than the snapshot recorded (table already diverged). *)
let preload_symbols names =
  let rec go id = function
    | [] -> Ok ()
    | name :: rest ->
        if Symtab.intern name = id then go (id + 1) rest
        else
          Error
            (Printf.sprintf
               "symbol %S interned to a different id than the snapshot \
                recorded (expected %d)"
               name id)
  in
  go 0 names

let load path svc =
  if not (Sys.file_exists path) then Ok 0
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          let header = input_line ic in
          match
            Scanf.sscanf header "mondet-cache/%d mode=%s@ syms=%d entries=%d"
              (fun v m s e -> (v, m, s, e))
          with
          | exception Scanf.Scan_failure m ->
              Error ("malformed snapshot header: " ^ m)
          | 1, m, syms, entries ->
              if m <> mode then
                Error
                  (Printf.sprintf
                     "snapshot was written under key mode %s, server runs %s"
                     m mode)
              else begin
                let names = ref [] in
                for _ = 1 to syms do
                  names :=
                    Scanf.sscanf (input_line ic) "%S" (fun n -> n) :: !names
                done;
                match preload_symbols (List.rev !names) with
                | Error _ as e -> e
                | Ok () ->
                    let cache = Svc_service.cache svc in
                    for _ = 1 to entries do
                      let k, v =
                        Scanf.sscanf (input_line ic) "%S %S" (fun k v ->
                            (k, v))
                      in
                      Svc_cache.add cache k v
                    done;
                    Ok entries
              end
          | v, _, _, _ ->
              Error (Printf.sprintf "unsupported snapshot version %d" v)
        with
        | End_of_file -> Error "truncated snapshot"
        | Scanf.Scan_failure m -> Error ("malformed snapshot line: " ^ m))
