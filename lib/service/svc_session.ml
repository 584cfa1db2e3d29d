(* A named service session: the server-side store of loaded programs,
   view collections and instances that requests refer to by name.

   Each session carries its own mutex.  The service holds it for the
   whole handling of a request against the session — planning,
   evaluation and stores — on every entry point, which serializes
   requests per session and thereby publishes every session-owned
   mutable structure (the instances' lazy index caches above all)
   between domains with a proper happens-before edge.  Requests on
   different sessions never share objects, so they run in parallel. *)

type t = {
  name : string;
  mu : Mutex.t;
  programs : (string, Datalog.query) Hashtbl.t;
  views : (string, View.collection) Hashtbl.t;
  instances : (string, Instance.t) Hashtbl.t;
  rpqs : (string, Rpq_translate.t) Hashtbl.t;
  (* each definition translated once, at load *)
  (* the ordered definition lists as loaded, so a load's NAME doubles as
     a view set for [rpq-rewrite] *)
  rpq_sets : (string, (string * Rpq.t) list) Hashtbl.t;
  (* materialized fixpoints over an instance, keyed by instance name and
     then by program fingerprint; maintained incrementally by the
     mutation verbs and consulted by eval/holds.  Owned by the session
     like everything else here: touch only under the session lock (see
     the mutex comment above). *)
  mats : (string, (string * Dl_incr.t) list) Hashtbl.t;
  (* fixed-window request quota, guarded by [mu] *)
  mutable win_start : float;
  mutable win_count : int;
}

exception Missing of string

let missing fmt = Printf.ksprintf (fun s -> raise (Missing s)) fmt

let create name =
  {
    name;
    mu = Mutex.create ();
    programs = Hashtbl.create 8;
    views = Hashtbl.create 8;
    instances = Hashtbl.create 8;
    rpqs = Hashtbl.create 8;
    rpq_sets = Hashtbl.create 8;
    mats = Hashtbl.create 8;
    win_start = neg_infinity;
    win_count = 0;
  }

let name t = t.name

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Count one request against the fixed [window]-second quota window;
   [true] means the caller must shed this request with [busy].  Must be
   called with the session lock held (the service does). *)
let over_quota t ~limit ~window ~now =
  if now -. t.win_start >= window then begin
    t.win_start <- now;
    t.win_count <- 1;
    false
  end
  else begin
    t.win_count <- t.win_count + 1;
    t.win_count > limit
  end

let set_program t n q = Hashtbl.replace t.programs n q
let set_views t n v = Hashtbl.replace t.views n v

(* Reloading an instance replaces its contents wholesale, so every
   materialization over it is stale; the mutation path instead edits the
   instance *through* its materializations and publishes the result with
   [update_instance], which keeps them. *)
let set_instance t n i =
  Hashtbl.remove t.mats n;
  Hashtbl.replace t.instances n i

let update_instance t n i = Hashtbl.replace t.instances n i

(* Cap on materializations per instance: a mat is a full extra fixpoint,
   and every one is repaired on every mutation, so an unbounded set
   would make mutations arbitrarily slow.  Oldest out. *)
let max_mats = 8

let mats t n = Option.value (Hashtbl.find_opt t.mats n) ~default:[]

let set_mats t n = function
  | [] -> Hashtbl.remove t.mats n
  | l -> Hashtbl.replace t.mats n l

let set_mat t n key m =
  let l = (key, m) :: List.remove_assoc key (mats t n) in
  set_mats t n (List.filteri (fun i _ -> i < max_mats) l)

let mat t n key = List.assoc_opt key (mats t n)

let program t n =
  match Hashtbl.find_opt t.programs n with
  | Some q -> q
  | None -> missing "no program %S in session %S" n t.name

let views t n =
  match Hashtbl.find_opt t.views n with
  | Some v -> v
  | None -> missing "no views %S in session %S" n t.name

let instance t n =
  match Hashtbl.find_opt t.instances n with
  | Some i -> i
  | None -> missing "no instance %S in session %S" n t.name

(* One rpq-load registers every definition individually *and* the
   ordered list under the load's own name, so the same NAME serves as an
   RPQ (when the list is a singleton it shadows nothing) and as the view
   set of [rpq-rewrite]. *)
let set_rpqs t n defs =
  let translated =
    List.map (fun (dn, e) -> (dn, Rpq_translate.translate e)) defs
  in
  List.iter (fun (dn, tr) -> Hashtbl.replace t.rpqs dn tr) translated;
  Hashtbl.replace t.rpq_sets n defs

let rpq t n =
  match Hashtbl.find_opt t.rpqs n with
  | Some e -> e
  | None -> missing "no rpq %S in session %S" n t.name

let rpq_set t n =
  match Hashtbl.find_opt t.rpq_sets n with
  | Some l -> l
  | None -> missing "no rpq set %S in session %S" n t.name
