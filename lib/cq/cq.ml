

type term = Var of string | Cst of Const.t
type atom = { rel : string; args : term list }
type t = { head : string list; body : atom list }

let atom rel args = { rel; args }

let atom_vars a =
  List.filter_map (function Var v -> Some v | Cst _ -> None) a.args

let body_vars body =
  List.concat_map atom_vars body |> List.sort_uniq String.compare

let make ~head body =
  let bv = body_vars body in
  List.iter
    (fun v ->
      if not (List.mem v bv) then
        invalid_arg ("Cq.make: head variable " ^ v ^ " not in body"))
    head;
  { head; body }

let boolean body = { head = []; body }
let arity q = List.length q.head

let vars q =
  let bv = body_vars q.body in
  q.head @ List.filter (fun v -> not (List.mem v q.head)) bv

let exi_vars q =
  List.filter (fun v -> not (List.mem v q.head)) (body_vars q.body)

let body_schema q =
  List.fold_left
    (fun s a -> Schema.add a.rel (List.length a.args) s)
    Schema.empty q.body

let const_of_var v = Const.named ("?" ^ v)

let term_const = function Var v -> const_of_var v | Cst c -> c

(* The canonical database is asked for over and over on the same query
   value (containment tests, hom dualities, repeated Boolean checks), so
   it is memoized under physical equality — instances are persistent, so
   sharing one across callers is safe.  One memo per domain, so it
   takes no lock, and no instance's index cache is filled from two
   domains at once. *)
let cdb_cache : (t * Instance.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let canonical_db q =
  let cdb_cache = Domain.DLS.get cdb_cache in
  match List.find_opt (fun (q', _) -> q' == q) !cdb_cache with
  | Some (_, db) -> db
  | None ->
      let db =
        Instance.of_list
          (List.map (fun a -> Fact.make a.rel (List.map term_const a.args)) q.body)
      in
      let keep = if List.length !cdb_cache >= 32 then [] else !cdb_cache in
      cdb_cache := (q, db) :: keep;
      db

let head_consts q = List.map const_of_var q.head

let body_consts q =
  List.concat_map
    (fun a -> List.filter_map (function Cst c -> Some c | Var _ -> None) a.args)
    q.body
  |> List.sort_uniq Const.compare

(* Constants appearing in the body must be mapped to themselves. *)
let frozen_init q =
  List.fold_left
    (fun m c -> Const.Map.add c c m)
    Const.Map.empty (body_consts q)

let of_instance ~head inst =
  let var_of c =
    match Const.name c with
    | Some s -> "n" ^ s
    | None -> "f" ^ Const.to_string c
  in
  let body =
    List.map
      (fun (f : Fact.t) ->
        { rel = f.rel; args = Array.to_list f.args |> List.map (fun c -> Var (var_of c)) })
      (Instance.facts inst)
  in
  { head = List.map var_of head; body }

let compare_tuple (a : Const.t array) b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i = Array.length a then 0
      else
        let c = Const.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let eval q inst =
  let db = canonical_db q in
  let hc = head_consts q in
  let homs = Hom.all ~init:(frozen_init q) ~limit:max_int db inst in
  List.map
    (fun h -> Array.of_list (List.map (fun c -> Const.Map.find c h) hc))
    homs
  |> List.sort_uniq compare_tuple

let holds q inst tuple =
  if Array.length tuple <> arity q then false
  else
    let init =
      List.fold_left2
        (fun m c t -> Const.Map.add c t m)
        (frozen_init q) (head_consts q) (Array.to_list tuple)
    in
    Hom.exists ~init (canonical_db q) inst

let holds_boolean q inst =
  Hom.exists ~init:(frozen_init q) (canonical_db q) inst

let contained_in q1 q2 =
  if arity q1 <> arity q2 then false
  else
    let init =
      List.fold_left2
        (fun m c2 c1 -> Const.Map.add c2 c1 m)
        (frozen_init q2) (head_consts q2) (head_consts q1)
    in
    Hom.exists ~init (canonical_db q2) (canonical_db q1)

let equivalent q1 q2 = contained_in q1 q2 && contained_in q2 q1

let minimize q =
  let rec go q =
    let rec try_atoms pre = function
      | [] -> None
      | a :: post ->
          let q' = { q with body = List.rev_append pre post } in
          let head_ok =
            List.for_all (fun v -> List.mem v (body_vars q'.body)) q.head
          in
          if head_ok && contained_in q' q then Some q'
          else try_atoms (a :: pre) post
    in
    match try_atoms [] q.body with None -> q | Some q' -> go q'
  in
  go q

let radius q = Gaifman.radius (Gaifman.of_instance (canonical_db q))
let connected q = Gaifman.connected (Gaifman.of_instance (canonical_db q))

let rename_vars f q =
  let tm = function Var v -> Var (f v) | Cst c -> Cst c in
  {
    head = List.map f q.head;
    body = List.map (fun a -> { a with args = List.map tm a.args }) q.body;
  }

(* shared by every domain: a fresh name is never handed out twice *)
let fresh_var_counter = Atomic.make 0

let freshen q =
  let tbl = Hashtbl.create 8 in
  let f v =
    match Hashtbl.find_opt tbl v with
    | Some v' -> v'
    | None ->
        let n = 1 + Atomic.fetch_and_add fresh_var_counter 1 in
        let v' = Printf.sprintf "%s~%d" v n in
        Hashtbl.add tbl v v';
        v'
  in
  rename_vars f q

let conjoin q1 q2 =
  let head =
    q1.head @ List.filter (fun v -> not (List.mem v q1.head)) q2.head
  in
  { head; body = q1.body @ q2.body }

let pp_term ppf = function
  | Var v -> Fmt.string ppf v
  | Cst c -> Fmt.pf ppf "'%a'" Const.pp c

let pp_atom ppf a =
  if a.args = [] then Fmt.string ppf a.rel
  else Fmt.pf ppf "%s(%a)" a.rel Fmt.(list ~sep:comma pp_term) a.args

let pp ppf q =
  Fmt.pf ppf "(%a) :- %a"
    Fmt.(list ~sep:comma string)
    q.head
    Fmt.(list ~sep:comma pp_atom)
    q.body
