exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Every token carries the 1-based line/column where it starts, so parser
   errors — not just tokenizer errors — can say where they struck. *)
type pos = { line : int; col : int }

let fail_at pos fmt =
  Format.kasprintf
    (fun s -> raise (Error (Printf.sprintf "line %d, column %d: %s" pos.line pos.col s)))
    fmt

type token =
  | Ident of string
  | Quoted of string
  | Lparen
  | Rparen
  | Comma
  | Period
  | Arrow
  | Eof

let token_name = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Quoted s -> Printf.sprintf "constant '%s'" s
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Period -> "'.'"
  | Arrow -> "'<-'"
  | Eof -> "end of input"

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '#' || c = '~' || c = '!' || c = '?' || c = '$' || c = '*'

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let line = ref 1 and bol = ref 0 in
  let here () = { line = !line; col = !i - !bol + 1 } in
  let push t p = toks := (t, p) :: !toks in
  while !i < n do
    let c = s.[!i] in
    if c = '\n' then (
      incr i;
      incr line;
      bol := !i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '%' then (
      while !i < n && s.[!i] <> '\n' do
        incr i
      done)
    else if c = '(' then (
      push Lparen (here ());
      incr i)
    else if c = ')' then (
      push Rparen (here ());
      incr i)
    else if c = ',' then (
      push Comma (here ());
      incr i)
    else if c = '.' then (
      push Period (here ());
      incr i)
    else if c = '\'' then (
      let p = here () in
      let j = ref (!i + 1) in
      while !j < n && s.[!j] <> '\'' do
        incr j
      done;
      if !j >= n then fail_at p "unterminated quote";
      push (Quoted (String.sub s (!i + 1) (!j - !i - 1))) p;
      i := !j + 1)
    else if c = '<' && !i + 1 < n && s.[!i + 1] = '-' then (
      push Arrow (here ());
      i := !i + 2)
    else if c = ':' && !i + 1 < n && s.[!i + 1] = '-' then (
      push Arrow (here ());
      i := !i + 2)
    else if is_ident_char c then (
      let p = here () in
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      push (Ident (String.sub s !i (!j - !i))) p;
      i := !j)
    else fail_at (here ()) "unexpected character %C" c
  done;
  push Eof (here ());
  List.rev !toks

type state = { mutable toks : (token * pos) list }

let eof_pos = { line = 1; col = 1 }

let peek st = match st.toks with [] -> Eof | (t, _) :: _ -> t

let pos st = match st.toks with [] -> eof_pos | (_, p) :: _ -> p

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

(* term in rule position: identifiers are variables, quotes are constants *)
let parse_args st ~term =
  match peek st with
  | Lparen ->
      advance st;
      if peek st = Rparen then (
        advance st;
        [])
      else
        let rec go acc =
          let a = term st in
          match peek st with
          | Comma ->
              advance st;
              go (a :: acc)
          | Rparen ->
              advance st;
              List.rev (a :: acc)
          | t -> fail_at (pos st) "expected ',' or ')', found %s" (token_name t)
        in
        go []
  | _ -> []

let rule_term st =
  match peek st with
  | Ident v ->
      advance st;
      Cq.Var v
  | Quoted c ->
      advance st;
      Cq.Cst (Const.named c)
  | t -> fail_at (pos st) "expected term, found %s" (token_name t)

let fact_term st =
  match peek st with
  | Ident v ->
      advance st;
      Const.named v
  | Quoted c ->
      advance st;
      Const.named c
  | t -> fail_at (pos st) "expected constant, found %s" (token_name t)

let parse_atom st =
  match peek st with
  | Ident name ->
      advance st;
      Cq.atom name (parse_args st ~term:rule_term)
  | t -> fail_at (pos st) "expected atom, found %s" (token_name t)

let parse_rule st =
  let head_pos = pos st in
  let head = parse_atom st in
  let body =
    match peek st with
    | Arrow ->
        advance st;
        let rec go acc =
          let a = parse_atom st in
          match peek st with
          | Comma ->
              advance st;
              go (a :: acc)
          | _ -> List.rev (a :: acc)
        in
        go []
    | _ -> []
  in
  if peek st = Period then advance st;
  (* rule validation failures (head variable absent from the body, arity
     clash, head constant) point at the rule's head token *)
  try Datalog.rule head body with Invalid_argument m -> fail_at head_pos "%s" m

let parse_program st =
  let rec go acc =
    match peek st with
    | Eof -> List.rev acc
    | _ -> go (parse_rule st :: acc)
  in
  go []

let with_input s f =
  let st = { toks = tokenize s } in
  let r = f st in
  (match peek st with
  | Eof -> ()
  | t -> fail_at (pos st) "trailing input at %s" (token_name t));
  r

let program s = with_input s parse_program

let query ~goal s = Datalog.query (program s) goal

let rule s =
  with_input s (fun st ->
      let r = parse_rule st in
      r)

let atom s = with_input s parse_atom

let cq_of_rule (r : Datalog.rule) =
  let head =
    List.map
      (function
        | Cq.Var v -> v
        | Cq.Cst _ -> fail "constant in CQ head")
      r.head.Cq.args
  in
  Cq.make ~head r.body

let cq s = cq_of_rule (rule s)

let ucq s =
  let rules = program s in
  match rules with
  | [] -> fail "empty UCQ"
  | r :: _ ->
      let name = r.head.Cq.rel in
      List.iter
        (fun (r' : Datalog.rule) ->
          if not (String.equal r'.head.Cq.rel name) then
            fail "UCQ disjuncts must share a head predicate")
        rules;
      Ucq.make (List.map cq_of_rule rules)

let instance s =
  with_input s (fun st ->
      let rec go acc =
        match peek st with
        | Eof -> acc
        | Ident name ->
            advance st;
            let args = parse_args st ~term:fact_term in
            if peek st = Period then advance st;
            go (Instance.add (Fact.make name args) acc)
        | t -> fail_at (pos st) "expected fact, found %s" (token_name t)
      in
      go Instance.empty)

(* ------------------------------------------------------------------ *)
(* Views: a program whose rules are grouped by head predicate — each
   group defines one view (a CQ view if a single rule, a UCQ view
   otherwise).  Shared by the CLI's views files and the service's [load
   views] payloads. *)

(* The views that derive something: the least set closed under "some
   rule of the view reads only base relations and views in the set".  A
   view outside it has no base case, so its image is empty and so are its
   approximations. *)
let grounded names (rules : Datalog.program) =
  let rec grow ok =
    let fires (r : Datalog.rule) =
      List.for_all
        (fun (a : Cq.atom) -> (not (List.mem a.rel names)) || List.mem a.rel ok)
        r.body
    in
    let ok' =
      List.filter
        (fun n ->
          List.exists
            (fun (r : Datalog.rule) -> r.head.Cq.rel = n && fires r)
            rules)
        names
    in
    if List.length ok' = List.length ok then ok else grow ok'
  in
  grow []

let views_of_program (rules : Datalog.program) : View.collection =
  let names =
    List.sort_uniq String.compare
      (List.map (fun (r : Datalog.rule) -> r.Datalog.head.Cq.rel) rules)
  in
  let ok = grounded names rules in
  List.iter
    (fun n ->
      if not (List.mem n ok) then
        fail "view %s has no base case: each of its rules reads a view \
              that has none"
          n)
    names;
  List.map
    (fun name ->
      let group =
        List.filter
          (fun (r : Datalog.rule) -> r.Datalog.head.Cq.rel = name)
          rules
      in
      let cq_of (r : Datalog.rule) =
        let head =
          List.map
            (function
              | Cq.Var v -> v
              | Cq.Cst _ -> fail "view %s: constant in view head" name)
            r.Datalog.head.Cq.args
        in
        Cq.make ~head r.Datalog.body
      in
      match group with
      | [ r ] -> View.cq name (cq_of r)
      | rs -> View.ucq name (Ucq.make (List.map cq_of rs)))
    names

let views s = views_of_program (program s)
