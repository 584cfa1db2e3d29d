(* In-memory spans recorded around calls into the program's layers.

   A span is (name, start, end, parent, op): [parent] is the index of the
   enclosing span (-1 for an op's root) and [op] the op the span belongs
   to.  Spans live in growable int arrays, so recording one allocates
   nothing once the arrays have grown; they are written out and reduced
   to self times only after the traced pass ends. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  names : (string, int) Hashtbl.t;
  mutable rev_names : string list;
  mutable clock_ns : float;
      (** the duration an empty span measures: one clock read *)
}

(* Intern a span name once, outside the traced loop. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.add t.names s i;
      t.rev_names <- s :: t.rev_names;
      i

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.op <- g t.op

let enter t ~name ~parent ~op =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.op.(i) <- op;
  t.start.(i) <- Clock.now_ns ();
  i

let leave t i = t.stop.(i) <- Clock.now_ns ()

(* Rename a span once its classification is known (e.g. hit or miss,
   which is only decided by the call it times). *)
let set_name t i name = t.name.(i) <- name

(* A fresh trace with room for [capacity] spans before it grows, its
   clock cost calibrated as the median of 10k empty spans. *)
let create ?(capacity = 1 lsl 16) () =
  let k = 10_000 in
  let cap = max capacity k in
  let t =
    {
      n = 0;
      name = Array.make cap 0;
      start = Array.make cap 0;
      stop = Array.make cap 0;
      parent = Array.make cap 0;
      op = Array.make cap 0;
      names = Hashtbl.create 32;
      rev_names = [];
      clock_ns = 0.0;
    }
  in
  for _ = 1 to k do
    leave t (enter t ~name:0 ~parent:(-1) ~op:0)
  done;
  let empty = Array.init k (fun i -> float_of_int (t.stop.(i) - t.start.(i))) in
  Array.sort compare empty;
  t.clock_ns <- Stats.median empty;
  t.n <- 0;
  t

(* [span t ~name ~parent ~op f] runs [f] with the new span's index (the
   parent of any span [f] records) and closes the span, also when [f]
   raises. *)
let span t ~name ~parent ~op f =
  let i = enter t ~name ~parent ~op in
  match f i with
  | r ->
      leave t i;
      r
  | exception e ->
      leave t i;
      raise e

(* A span's duration net of the clock read it includes. *)
let duration t i =
  max 0 (t.stop.(i) - t.start.(i) - int_of_float (Float.round t.clock_ns))

let clock_ns t = t.clock_ns

(* Self time: a span's duration minus its children's (children of one
   span are sequential, never overlapping). *)
let self_times t =
  let self = Array.init t.n (duration t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

(* Durations (ns) of every span with the given name, sorted. *)
let durations t s =
  match Hashtbl.find_opt t.names s with
  | None -> [||]
  | Some id ->
      let l = ref [] in
      for i = t.n - 1 downto 0 do
        if t.name.(i) = id then l := float_of_int (duration t i) :: !l
      done;
      Stats.sorted_of_list !l

(* Per op (ops numbered [0 .. ops-1]): the summed duration of the spans
   named [name], or without [name] of the spans directly under the op's
   root. *)
let op_totals ?name t ~ops =
  let acc = Array.make ops 0.0 in
  let id = Option.map (Hashtbl.find_opt t.names) name in
  for i = 0 to t.n - 1 do
    let take =
      match id with
      | None ->
          let p = t.parent.(i) in
          p >= 0 && t.parent.(p) = -1
      | Some (Some id) -> t.name.(i) = id
      | Some None -> false
    in
    if take then acc.(t.op.(i)) <- acc.(t.op.(i)) +. float_of_int (duration t i)
  done;
  acc

let count t s =
  match Hashtbl.find_opt t.names s with
  | None -> 0
  | Some id ->
      let c = ref 0 in
      for i = 0 to t.n - 1 do
        if t.name.(i) = id then incr c
      done;
      !c

let write_csv t path =
  let names = Array.of_list (List.rev t.rev_names) in
  let oc = open_out path in
  output_string oc "id,name,start_ns,end_ns,parent,op\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i names.(t.name.(i)) t.start.(i)
      t.stop.(i) t.parent.(i) t.op.(i)
  done;
  close_out oc

(* The per-layer table: one row per span name, durations and self times
   in microseconds. *)
let table t =
  let self = self_times t in
  let names = List.rev t.rev_names in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-40s %8s %10s %10s %10s %12s %12s\n" "span" "count"
    "q1_us" "median_us" "q3_us" "self_med_us" "self_tot_ms";
  List.iteri
    (fun id s ->
      let ds = ref [] and ss = ref [] in
      for i = t.n - 1 downto 0 do
        if t.name.(i) = id then begin
          ds := float_of_int (duration t i) :: !ds;
          ss := float_of_int self.(i) :: !ss
        end
      done;
      let d = Stats.sorted_of_list !ds and sf = Stats.sorted_of_list !ss in
      Printf.bprintf b "%-40s %8d %10.3f %10.3f %10.3f %12.3f %12.3f\n" s
        (Array.length d)
        (Stats.quantile d 0.25 /. 1e3)
        (Stats.median d /. 1e3)
        (Stats.quantile d 0.75 /. 1e3)
        (Stats.median sf /. 1e3)
        (Stats.sum sf /. 1e6))
    names;
  Buffer.contents b
