package repro.core

/** §6.1 source-candidate validation by token-frequency count (Eq. 1–2).
  *
  * `Q(<t̃>, p)` sums the quantifiers of p's tokens of exactly class `<t̃>`
  * (`+` counts as 1). A source pattern is a candidate iff its frequency is
  * ≥ the target's for every base class.
  *
  * Deviation (documented in DESIGN.md): constant discovery can fold base
  * tokens into literals (e.g. `'734'`), so on the *source* side literal
  * contents contribute character counts to `<D>`/`<L>`/`<U>` (the source
  * really does hold that material). Target-side literals contribute
  * nothing: a constant target token is produced by `ConstStr`, requiring
  * no source material — counting it (e.g. the `'1'` in a `'+1 ('` phone
  * prefix) would wrongly disqualify every source.
  */
object Validate {

  /** Token frequency Q of base class `cls` in `p` (Eq. 1), optionally
    * crediting literal contents (source side).
    */
  def freq(cls: TokType.Base, p: Pattern, countLiterals: Boolean): Int =
    p.tokens.map {
      case Token(TokType.Lit(v), _) if countLiterals && Tokenizer.leafClasses.contains(cls) =>
        v.count(TokType.matches(cls, _))
      case Token(tpe, q) if tpe == cls => q.freqValue
      case _                           => 0
    }.sum

  /** V(source, target) of a source at a hierarchy node (Eq. 2): for every
    * base class the source holds at least the target's frequency.
    *
    * At an inner node (`isLeaf = false`) this is Eq. 2 exactly as in the
    * paper, over base tokens only. Rejecting a generalized pattern whose
    * class material was washed into `<A>`/`<AN>` is what drives Algorithm 2
    * to descend to more specific children (the paper's reason 3 in §6.1).
    *
    * At a leaf, constants discovered there (e.g. `'CPT'`) still hold
    * extractable class material, so literal contents are credited on the
    * source side. Crediting them at inner nodes would let over-general
    * patterns pass on literal material alone and stop the descent the paper
    * relies on — hence the leaf flag.
    */
  def validateAt(source: Pattern, target: Pattern, isLeaf: Boolean): Boolean =
    TokType.baseClasses.forall(cls =>
      freq(cls, source, countLiterals = isLeaf) >= freq(cls, target, countLiterals = false))
}
