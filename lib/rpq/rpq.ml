(* RPQ surface syntax: a regex AST over binary relation symbols with
   inverse traversal, plus its parser, printer and fingerprint.  The
   reversal operator of the concrete syntax is normalized away at parse
   time ([rev]), so downstream passes only ever see the seven
   constructors. *)

type dir = Fwd | Bwd

type t =
  | Eps
  | Sym of string * dir
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---------- reversal ---------- *)

let flip = function Fwd -> Bwd | Bwd -> Fwd

let rec rev = function
  | Eps -> Eps
  | Sym (r, d) -> Sym (r, flip d)
  | Seq (a, b) -> Seq (rev b, rev a)
  | Alt (a, b) -> Alt (rev a, rev b)
  | Star e -> Star (rev e)
  | Plus e -> Plus (rev e)
  | Opt e -> Opt (rev e)

(* ---------- structure ---------- *)

let rec nullable = function
  | Eps | Star _ | Opt _ -> true
  | Sym _ -> false
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Plus e -> nullable e

let rels e =
  let rec go acc = function
    | Eps -> acc
    | Sym (r, _) -> r :: acc
    | Seq (a, b) | Alt (a, b) -> go (go acc a) b
    | Star e | Plus e | Opt e -> go acc e
  in
  List.sort_uniq String.compare (go [] e)

let compare = Stdlib.compare
let equal a b = compare a b = 0

(* ---------- parser ---------- *)

(* A tiny hand lexer with character positions.  Identifiers are strict
   (letters, digits, underscore): the surface syntax of Parse lets the
   characters *?!~$# into identifiers, which would swallow the postfix
   operators here, so the RPQ grammar has its own charset. *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

type token = Tid of string | Tlpar | Trpar | Tbar | Tdot | Tstar | Tplus
           | Topt | Tinv | Teq | Tsemi | Teof

let lex s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      toks := (Tid (String.sub s !i (!j - !i)), pos) :: !toks;
      i := !j
    end
    else begin
      let t =
        match c with
        | '(' -> Tlpar
        | ')' -> Trpar
        | '|' -> Tbar
        | '.' -> Tdot
        | '*' -> Tstar
        | '+' -> Tplus
        | '?' -> Topt
        | '^' -> Tinv
        | '=' -> Teq
        | ';' -> Tsemi
        | c -> err "rpq: unexpected character %C at position %d" c pos
      in
      toks := (t, pos) :: !toks;
      incr i
    end
  done;
  List.rev ((Teof, n) :: !toks)

(* Recursive descent over a mutable token stream.
     alt  ::= cat ('|' cat)*
     cat  ::= post (('.')? post)*
     post ::= atom ('*'|'+'|'?'|'^')*
     atom ::= IDENT | 'eps' | '(' alt ')'                              *)

type stream = { mutable toks : (token * int) list }

let peek st = match st.toks with (t, p) :: _ -> (t, p) | [] -> (Teof, 0)
let next st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let starts_atom = function
  | Tid _ | Tlpar -> true
  | _ -> false

let rec p_alt st =
  let a = p_cat st in
  match peek st with
  | Tbar, _ ->
      next st;
      Alt (a, p_alt st)
  | _ -> a

and p_cat st =
  let a = p_post st in
  match peek st with
  | Tdot, _ ->
      next st;
      let t, p = peek st in
      if starts_atom t then Seq (a, p_cat st)
      else err "rpq: expected an expression after '.' at position %d" p
  | t, _ when starts_atom t -> Seq (a, p_cat st)
  | _ -> a

and p_post st =
  let e = ref (p_atom st) in
  let rec go () =
    match peek st with
    | Tstar, _ -> next st; e := Star !e; go ()
    | Tplus, _ -> next st; e := Plus !e; go ()
    | Topt, _ -> next st; e := Opt !e; go ()
    | Tinv, _ -> next st; e := rev !e; go ()
    | _ -> ()
  in
  go ();
  !e

and p_atom st =
  match peek st with
  | Tid "eps", _ ->
      next st;
      Eps
  | Tid r, _ ->
      next st;
      Sym (r, Fwd)
  | Tlpar, p ->
      next st;
      let e = p_alt st in
      (match peek st with
      | Trpar, _ -> next st; e
      | _, p' ->
          ignore p;
          err "rpq: unclosed '(' (expected ')' at position %d)" p')
  | _, p -> err "rpq: expected an identifier, 'eps' or '(' at position %d" p

let parse_stream st =
  let e = p_alt st in
  e

let parse s =
  let st = { toks = lex s } in
  let e = parse_stream st in
  (match peek st with
  | Teof, _ -> ()
  | _, p -> err "rpq: trailing input at position %d" p);
  e

let parse_defs s =
  let st = { toks = lex s } in
  let defs = ref [] in
  let rec go () =
    match peek st with
    | Teof, _ -> ()
    | Tid name, _ -> (
        next st;
        (match peek st with
        | Teq, _ -> next st
        | _, p -> err "rpq: expected '=' after name %S at position %d" name p);
        if List.mem_assoc name !defs then err "rpq: duplicate name %S" name;
        defs := (name, parse_stream st) :: !defs;
        match peek st with
        | Tsemi, _ ->
            next st;
            go ()
        | Teof, _ -> ()
        | _, p -> err "rpq: expected ';' or end of input at position %d" p)
    | _, p -> err "rpq: expected a definition name at position %d" p
  in
  go ();
  List.rev !defs

(* ---------- printer ---------- *)

(* precedence levels: alt (0) < cat (1) < postfix (2) *)
let rec bprint b prec e =
  let paren p body =
    if prec > p then begin
      Buffer.add_char b '(';
      body ();
      Buffer.add_char b ')'
    end
    else body ()
  in
  match e with
  | Eps -> Buffer.add_string b "eps"
  | Sym (r, Fwd) -> Buffer.add_string b r
  | Sym (r, Bwd) ->
      Buffer.add_string b r;
      Buffer.add_char b '^'
  (* the parser nests [.] and [|] to the right, so a left operand of
     the same operator keeps its parentheses *)
  | Seq (x, y) ->
      paren 1 (fun () ->
          bprint b 2 x;
          Buffer.add_char b '.';
          bprint b 1 y)
  | Alt (x, y) ->
      paren 0 (fun () ->
          bprint b 1 x;
          Buffer.add_char b '|';
          bprint b 0 y)
  | Star x ->
      paren 2 (fun () -> bprint b 2 x);
      Buffer.add_char b '*'
  | Plus x ->
      paren 2 (fun () -> bprint b 2 x);
      Buffer.add_char b '+'
  | Opt x ->
      paren 2 (fun () -> bprint b 2 x);
      Buffer.add_char b '?'

let to_string e =
  let b = Buffer.create 32 in
  bprint b 0 e;
  Buffer.contents b

let pp ppf e = Fmt.string ppf (to_string e)

(* ---------- fingerprint ---------- *)

(* Same two-stream mixing discipline as {!Datalog.fingerprint}: a
   constructor tag step, then the children in order.  Relation names
   contribute their interned id via {!Fp.string_hash}. *)
let fingerprint e =
  let tag (a, b) t = (Fp.step a t, Fp.step b (t + 1)) in
  let rec go acc e =
    match e with
    | Eps -> tag acc 3
    | Sym (r, d) ->
        let h = Fp.string_hash r in
        let a, b = tag acc (if d = Fwd then 7 else 13) in
        (Fp.step a h, Fp.step b h)
    | Seq (x, y) -> go (go (tag acc 29) x) y
    | Alt (x, y) -> go (go (tag acc 37) x) y
    | Star x -> go (tag acc 43) x
    | Plus x -> go (tag acc 53) x
    | Opt x -> go (tag acc 61) x
  in
  go (Fp.seed1, Fp.seed2) e

let fingerprint_hex e =
  let a, b = fingerprint e in
  Fp.hex a b
