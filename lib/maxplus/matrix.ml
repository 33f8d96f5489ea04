type t = { data : float array; r : int; c : int }

let make ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.make: negative dimension";
  { data = Array.make (max 1 (rows * cols)) Semiring.zero; r = rows; c = cols }

let rows m = m.r
let cols m = m.c

let check m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then
    invalid_arg (Printf.sprintf "Matrix: index (%d, %d) out of %dx%d" i j m.r m.c)

let get m i j =
  check m i j;
  m.data.((i * m.c) + j)

let set m i j v =
  check m i j;
  m.data.((i * m.c) + j) <- v

let identity n =
  let m = make ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    set m i i Semiring.one
  done;
  m

let of_arrays arrays =
  let r = Array.length arrays in
  let c = if r = 0 then 0 else Array.length arrays.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> c then invalid_arg "Matrix.of_arrays: ragged rows")
    arrays;
  let m = make ~rows:r ~cols:c in
  Array.iteri (fun i row -> Array.iteri (fun j v -> set m i j v) row) arrays;
  m

let add a b =
  if a.r <> b.r || a.c <> b.c then invalid_arg "Matrix.add: dimension mismatch";
  { a with data = Array.mapi (fun k v -> Semiring.add v b.data.(k)) a.data }

let mul a b =
  if a.c <> b.r then invalid_arg "Matrix.mul: dimension mismatch";
  let m = make ~rows:a.r ~cols:b.c in
  for i = 0 to a.r - 1 do
    for k = 0 to a.c - 1 do
      let aik = a.data.((i * a.c) + k) in
      if not (Semiring.is_zero aik) then
        for j = 0 to b.c - 1 do
          let v = Semiring.mul aik b.data.((k * b.c) + j) in
          let idx = (i * m.c) + j in
          if v > m.data.(idx) then m.data.(idx) <- v
        done
    done
  done;
  m

let pow a k =
  if a.r <> a.c then invalid_arg "Matrix.pow: non-square matrix";
  if k < 0 then invalid_arg "Matrix.pow: negative exponent";
  let rec go acc base k =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (k lsr 1)
    end
  in
  go (identity a.r) a k

let apply a x =
  if a.c <> Array.length x then invalid_arg "Matrix.apply: dimension mismatch";
  Array.init a.r (fun i ->
      let best = ref Semiring.zero in
      for k = 0 to a.c - 1 do
        let v = Semiring.mul a.data.((i * a.c) + k) x.(k) in
        if v > !best then best := v
      done;
      !best)

let scale c a = { a with data = Array.map (fun v -> Semiring.mul c v) a.data }

let equal ?tol a b =
  a.r = b.r && a.c = b.c
  && Array.for_all2 (fun x y -> Semiring.equal ?tol x y) a.data b.data

let star a =
  if a.r <> a.c then invalid_arg "Matrix.star: non-square matrix";
  let n = a.r in
  (* (I (+) A)^(n-1) = A* when no positive cycles exist; repeated
     squaring reaches it in ceil(log2 (n-1)) products.  With a positive
     cycle the squares keep growing: detected by a failed idempotence
     check afterwards. *)
  let squarings =
    let rec count k pow = if pow >= max 1 (n - 1) then k else count (k + 1) (2 * pow) in
    count 0 1
  in
  let rec fix b k = if k = 0 then b else fix (mul b b) (k - 1) in
  let result = fix (add (identity n) a) squarings in
  if not (equal ~tol:1e-12 (mul result result) result) then
    invalid_arg "Matrix.star: positive cycle, the star diverges";
  result

let plus a = mul a (star a)

let pp ppf m =
  Fmt.pf ppf "@[<v>";
  for i = 0 to m.r - 1 do
    Fmt.pf ppf "[ ";
    for j = 0 to m.c - 1 do
      Fmt.pf ppf "%a " Semiring.pp (get m i j)
    done;
    Fmt.pf ppf "]";
    if i < m.r - 1 then Fmt.cut ppf ()
  done;
  Fmt.pf ppf "@]"
