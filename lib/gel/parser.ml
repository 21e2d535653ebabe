(* A concrete surface syntax for GEL(Omega, Theta) — it is a *query
   language*, so it gets one. The grammar covers the standard fragment
   (everything [Expr.to_string] prints except weight-carrying functions,
   whose matrices have no literal syntax):

     expr   ::= 'lab' INT '(' var ')'
              | 'E' '(' var ',' var ')'
              | '1[' var ('='|'!=') var ']'
              | vector                                  constants
              | 'agg_' NAME '{' var (',' var)* '}' '(' expr '|' expr ')'
              | 'concat' '(' expr (',' expr)* ')'
              | 'product' '(' expr ',' expr ')'
              | 'add' '(' expr ',' expr ')'
              | 'scale' '(' NUM ')' '(' expr ')'
              | ACT '(' expr ')'                        relu | sigmoid | ...
              | '(' expr ')'
     var    ::= 'x' INT
     vector ::= '[' NUM (';' NUM)* ']'
     NAME   ::= 'sum' | 'mean' | 'max' | 'min' | 'count'
     ACT    ::= 'relu' | 'sigmoid' | 'tanh' | 'id' | 'sign'
              | 'trunc-relu' | 'leaky-relu'

   [parse] is total on this fragment and round-trips with
   [Expr.to_string]: printing a parsed expression reproduces the source
   up to whitespace, and parsing a printed expression preserves
   semantics (property-tested). *)

module Activation = Glql_nn.Activation

exception Parse_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- lexer ---------------------------------------------------------------- *)

type token =
  | Tident of string
  | Tnumber of float
  | Tlparen
  | Trparen
  | Tlbrace
  | Trbrace
  | Tlbracket
  | Trbracket
  | Tcomma
  | Tsemi
  | Tpipe
  | Teq
  | Tneq

let token_to_string = function
  | Tident s -> s
  | Tnumber x -> Printf.sprintf "%g" x
  | Tlparen -> "("
  | Trparen -> ")"
  | Tlbrace -> "{"
  | Trbrace -> "}"
  | Tlbracket -> "["
  | Trbracket -> "]"
  | Tcomma -> ","
  | Tsemi -> ";"
  | Tpipe -> "|"
  | Teq -> "="
  | Tneq -> "!="

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '-'

let is_digit c = c >= '0' && c <= '9'

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let push t = tokens := t :: !tokens in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '(' then (push Tlparen; incr i)
    else if c = ')' then (push Trparen; incr i)
    else if c = '{' then (push Tlbrace; incr i)
    else if c = '}' then (push Trbrace; incr i)
    else if c = '[' then (push Tlbracket; incr i)
    else if c = ']' then (push Trbracket; incr i)
    else if c = ',' then (push Tcomma; incr i)
    else if c = ';' then (push Tsemi; incr i)
    else if c = '|' then (push Tpipe; incr i)
    else if c = '=' then (push Teq; incr i)
    else if c = '!' && !i + 1 < n && input.[!i + 1] = '=' then (push Tneq; i := !i + 2)
    else if is_digit c || (c = '-' && !i + 1 < n && (is_digit input.[!i + 1] || input.[!i + 1] = '.')) then begin
      (* Number: sign, digits, optional fraction and exponent. *)
      let start = !i in
      if c = '-' then incr i;
      while !i < n && (is_digit input.[!i] || input.[!i] = '.') do
        incr i
      done;
      if !i < n && (input.[!i] = 'e' || input.[!i] = 'E') then begin
        incr i;
        if !i < n && (input.[!i] = '+' || input.[!i] = '-') then incr i;
        while !i < n && is_digit input.[!i] do
          incr i
        done
      end;
      let s = String.sub input start (!i - start) in
      match float_of_string_opt s with
      | Some x -> push (Tnumber x)
      | None -> error "bad number %S" s
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      push (Tident (String.sub input start (!i - start)))
    end
    else error "unexpected character %C at offset %d" c !i
  done;
  List.rev !tokens

(* --- parser ---------------------------------------------------------------- *)

(* [dim] is one memoized [Expr.dim] per parse: the parser asks for the
   dimension of every subtree it combines, so a per-call memo would
   rewalk each subtree at every enclosing node. *)
type state = { mutable tokens : token list; dim : Expr.t -> int }

let peek st = match st.tokens with [] -> None | t :: _ -> Some t

let next st =
  match st.tokens with
  | [] -> error "unexpected end of input"
  | t :: rest ->
      st.tokens <- rest;
      t

let expect st t =
  let got = next st in
  if got <> t then error "expected %S, got %S" (token_to_string t) (token_to_string got)

(* Identifiers of the form x<digits> are variables. *)
let var_of_ident s =
  if String.length s >= 2 && s.[0] = 'x' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some v when v >= 1 -> Some v
    | _ -> None
  else None

let parse_var st =
  match next st with
  | Tident s -> (
      match var_of_ident s with Some v -> v | None -> error "expected a variable, got %S" s)
  | t -> error "expected a variable, got %S" (token_to_string t)

let activation_of_name = function
  | "relu" -> Some Activation.Relu
  | "sigmoid" -> Some Activation.Sigmoid
  | "tanh" -> Some Activation.Tanh
  | "id" -> Some Activation.Identity
  | "sign" -> Some Activation.Sign
  | "trunc-relu" -> Some Activation.Trunc_relu
  | "leaky-relu" -> Some Activation.Leaky_relu
  | _ -> None

let aggregator_of_name name d =
  match name with
  | "sum" -> Some (Agg.sum d)
  | "mean" -> Some (Agg.mean d)
  | "max" -> Some (Agg.max d)
  | "min" -> Some (Agg.min d)
  | "count" -> Some (Agg.count d)
  | _ -> None

let rec parse_expr st =
  match next st with
  | Tlparen ->
      let e = parse_expr st in
      expect st Trparen;
      e
  | Tlbracket -> parse_vector st
  | Tnumber x ->
      (* A bare number followed by '[' is the indicator 1[...]; otherwise a
         scalar constant. *)
      if x = 1.0 && peek st = Some Tlbracket then begin
        ignore (next st);
        let a = parse_var st in
        let op =
          match next st with
          | Teq -> Expr.Ceq
          | Tneq -> Expr.Cneq
          | t -> error "expected = or != in indicator, got %S" (token_to_string t)
        in
        let b = parse_var st in
        expect st Trbracket;
        Expr.Cmp (op, a, b)
      end
      else Expr.Const [| x |]
  | Tident name -> parse_ident st name
  | t -> error "unexpected token %S" (token_to_string t)

and parse_vector st =
  (* '[' already consumed. *)
  let entries = ref [] in
  let rec go () =
    match next st with
    | Tnumber x -> (
        entries := x :: !entries;
        match next st with
        | Tsemi -> go ()
        | Trbracket -> ()
        | t -> error "expected ; or ] in vector, got %S" (token_to_string t))
    | Trbracket -> ()
    | t -> error "expected a number in vector, got %S" (token_to_string t)
  in
  go ();
  Expr.Const (Array.of_list (List.rev !entries))

and parse_args st =
  expect st Tlparen;
  let rec go acc =
    let e = parse_expr st in
    match next st with
    | Tcomma -> go (e :: acc)
    | Trparen -> List.rev (e :: acc)
    | t -> error "expected , or ) in argument list, got %S" (token_to_string t)
  in
  go []

and parse_ident st name =
  (* lab<j>(x<i>) *)
  if String.length name > 3 && String.sub name 0 3 = "lab" then begin
    match int_of_string_opt (String.sub name 3 (String.length name - 3)) with
    | Some j ->
        expect st Tlparen;
        let v = parse_var st in
        expect st Trparen;
        Expr.Lab (j, v)
    | None -> error "bad label atom %S" name
  end
  else if name = "E" then begin
    expect st Tlparen;
    let a = parse_var st in
    expect st Tcomma;
    let b = parse_var st in
    expect st Trparen;
    Expr.Edge (a, b)
  end
  else if String.length name > 4 && String.sub name 0 4 = "agg_" then begin
    let agg_name = String.sub name 4 (String.length name - 4) in
    expect st Tlbrace;
    let rec vars acc =
      let v = parse_var st in
      match next st with
      | Tcomma -> vars (v :: acc)
      | Trbrace -> List.rev (v :: acc)
      | t -> error "expected , or } in binder, got %S" (token_to_string t)
    in
    let ys = vars [] in
    expect st Tlparen;
    let value = parse_expr st in
    expect st Tpipe;
    let guard = parse_expr st in
    expect st Trparen;
    let d = st.dim value in
    (match aggregator_of_name agg_name d with
    | Some th -> Expr.Agg (th, ys, value, guard)
    | None -> error "unknown aggregator %S" agg_name)
  end
  else if name = "concat" then begin
    let args = parse_args st in
    Expr.Apply (Func.concat (List.map st.dim args), args)
  end
  else if name = "product" then begin
    match parse_args st with
    | [ a; b ] when st.dim a = st.dim b -> Expr.Apply (Func.product (st.dim a), [ a; b ])
    | [ _; _ ] -> error "product arguments have different dimensions"
    | _ -> error "product takes exactly two arguments"
  end
  else if name = "add" then begin
    match parse_args st with
    | [ a; b ] when st.dim a = st.dim b -> Expr.Apply (Func.add (st.dim a), [ a; b ])
    | [ _; _ ] -> error "add arguments have different dimensions"
    | _ -> error "add takes exactly two arguments"
  end
  else if name = "scale" then begin
    (* scale(<c>)(<expr>) — matches the printer. *)
    expect st Tlparen;
    let c = match next st with Tnumber x -> x | t -> error "expected a number, got %S" (token_to_string t) in
    expect st Trparen;
    expect st Tlparen;
    let e = parse_expr st in
    expect st Trparen;
    Expr.Apply (Func.scale c (st.dim e), [ e ])
  end
  else begin
    match activation_of_name name with
    | Some act -> (
        match parse_args st with
        | [ e ] -> Expr.Apply (Func.activation act (st.dim e), [ e ])
        | _ -> error "%s takes exactly one argument" name)
    | None -> error "unknown identifier %S" name
  end

let parse input =
  Glql_util.Trace.with_span "parse" (fun () ->
      let st = { tokens = lex input; dim = Expr.dim_memoized () } in
      let e = parse_expr st in
      (match st.tokens with
      | [] -> ()
      | t :: _ -> error "trailing input starting at %S" (token_to_string t));
      (* Force a full well-formedness check. *)
      ignore (st.dim e);
      e)
